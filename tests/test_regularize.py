"""Bipartite extraction, degree regularization, rich sets, and zooming."""

import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orituran.graphs import BipartiteDigraph, OrientedGraph, TooLargeError
from orituran.extremal import BadParamsError
from orituran.homomorphism import VertexMap
from orituran.regularize import (
    VERIFY_SUBSET_CAP,
    CertificateInsufficient,
    InfeasibleConfig,
    RichSetCertificate,
    TooSmall,
    ZoomConfig,
    _random_zoom_stats,
    almost_regular_subdigraph,
    embed_via_rich_set,
    extract_bipartite,
    faks_pipeline,
    find_rich_set,
    random_zoom,
    verify_bipartite_embedding,
    verify_certificate,
)
from checkers import is_copy_witness

ARC = BipartiteDigraph((0,), (1,), (1,))
ZOOM_SHA = "cb5e43fc558e9996f159ee0067a39ffaa257385a8fbc32294efbc5714fb206a0"
PIPELINE_SHA = "343572ac34838f70fdcba963b5e3de5fcbe4f02fdf647642631e711e12484ce8"


def _random_oriented(rng, n, density):
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.random()
            if roll < density / 2:
                arcs.append((i, j))
            elif roll < density:
                arcs.append((j, i))
    return OrientedGraph.from_arcs(n, arcs)


def _complete_bipartite(nu, nw):
    return BipartiteDigraph(
        tuple(range(nu)), tuple(range(nu, nu + nw)), ((1 << nw) - 1,) * nu
    )


def _random_bipartite(seed, nu, nw):
    rng = random.Random(seed)
    return BipartiteDigraph(
        tuple(range(nu)),
        tuple(range(nu, nu + nw)),
        tuple(rng.getrandbits(nw) for _ in range(nu)),
    )


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _total_degrees(b):
    degs = [m.bit_count() for m in b.out_masks]
    degs += [sum(m >> j & 1 for m in b.out_masks) for j in range(len(b.part_w))]
    return degs


def _columns(b):
    """Column j as a bitset over part_u indices, by a per-arc loop."""
    ins = [0] * len(b.part_w)
    for i, m in enumerate(b.out_masks):
        while m:
            j = (m & -m).bit_length() - 1
            ins[j] |= 1 << i
            m &= m - 1
    return ins


def _reference_verify_certificate(g, cert):
    """AND the columns of each r-subset and count the common in-neighbours."""
    subsets = math.comb(len(cert.subset), cert.r)
    if subsets > VERIFY_SUBSET_CAP:
        raise TooLargeError("too many subsets")
    ins = _columns(g)
    w_pos = {w: j for j, w in enumerate(g.part_w)}
    for combo in itertools.combinations(cert.subset, cert.r):
        common = (1 << len(g.part_u)) - 1
        for w in combo:
            common &= ins[w_pos[w]]
        if common.bit_count() < cert.h:
            return False
    return True


def _reference_embed(g, pattern, cert):
    """The lowest unused set bit of the AND of each pattern U vertex's columns."""
    if cert.h != pattern.n:
        raise BadParamsError("h")
    if any(m.bit_count() > cert.r for m in pattern.out_masks):
        raise BadParamsError("r")
    if len(pattern.part_w) > len(cert.subset):
        raise CertificateInsufficient("subset")
    ins = _columns(g)
    w_pos = {w: j for j, w in enumerate(g.part_w)}
    mapping = dict(zip(pattern.part_w, cert.subset))
    used = set()
    for i, a in enumerate(pattern.part_u):
        common = (1 << len(g.part_u)) - 1
        for j in range(len(pattern.part_w)):
            if pattern.out_masks[i] >> j & 1:
                common &= ins[w_pos[mapping[pattern.part_w[j]]]]
        free = [k for k in range(len(g.part_u)) if common >> k & 1 and g.part_u[k] not in used]
        if not free:
            raise CertificateInsufficient("row")
        used.add(g.part_u[free[0]])
        mapping[a] = g.part_u[free[0]]
    src_n = max(list(pattern.part_u) + list(pattern.part_w)) + 1
    tgt_n = max(list(g.part_u) + list(g.part_w)) + 1
    return VertexMap.of(src_n, tgt_n, mapping)


def _reference_verify_embedding(g, pattern, vm):
    """is_copy_witness on an OrientedGraph of the image and one of the pattern."""
    mapping = vm.as_dict()
    if len(set(mapping.values())) != len(mapping):
        return False
    if set(mapping) != set(pattern.part_u) | set(pattern.part_w):
        return False
    image_u = sorted(mapping[a] for a in pattern.part_u)
    image_w = sorted(mapping[b] for b in pattern.part_w)
    if not set(image_u) <= set(g.part_u) or not set(image_w) <= set(g.part_w):
        return False
    host_label = {v: i for i, v in enumerate(image_u + image_w)}
    host = OrientedGraph.from_arcs(
        len(host_label),
        ((host_label[u], host_label[w]) for u, w in g.restrict(image_u, image_w).arcs()),
    )
    pat_label = {v: i for i, v in enumerate(pattern.part_u + pattern.part_w)}
    pat = OrientedGraph.from_arcs(
        len(pat_label), ((pat_label[u], pat_label[w]) for u, w in pattern.arcs())
    )
    small = {pat_label[v]: host_label[mapping[v]] for v in mapping}
    return is_copy_witness(host, pat, VertexMap.of(pat.n, host.n, small))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared by type with the reference
        return "raised", type(exc)


def _mixed_bipartite(rng, nu, nw):
    """Rows drawn empty, full or random, so covers and misses both occur."""
    full = (1 << nw) - 1
    rows = tuple(rng.choice((0, full, rng.getrandbits(nw), rng.getrandbits(nw)))
                 for _ in range(nu))
    return BipartiteDigraph(tuple(range(nu)), tuple(range(nu, nu + nw)), rows)


def _random_pattern(rng, h, r):
    """A bipartite pattern on h vertices with out-degrees at most r."""
    nu = rng.randint(0, h)
    nw = h - nu
    rows = []
    for _ in range(nu):
        cols = rng.sample(range(nw), rng.randint(0, min(r, nw)))
        rows.append(sum(1 << j for j in cols))
    ids = rng.sample(range(3 * h), h)
    return BipartiteDigraph(tuple(ids[:nu]), tuple(ids[nu:]), tuple(rows))


# --- extraction ------------------------------------------------------------------


def test_extract_single_arc():
    g = OrientedGraph.from_arcs(2, [(0, 1)])
    b = extract_bipartite(g, seed=1)
    assert b.arc_count == 1


def test_extract_quarter_bound_and_balance():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(1, 40)
        g = _random_oriented(rng, n, rng.random())
        b = extract_bipartite(g, seed=trial)
        assert abs(len(b.part_u) - len(b.part_w)) <= 1
        assert b.arc_count >= (g.arc_count + 3) // 4
        assert set(b.part_u) | set(b.part_w) == set(range(n))
        for u, w in b.arcs():
            assert g.has_arc(u, w)


def test_extract_deterministic_per_seed():
    g = _random_oriented(random.Random(3), 20, 0.6)
    a = extract_bipartite(g, seed=5)
    b = extract_bipartite(g, seed=5)
    assert (a.part_u, a.part_w, a.out_masks) == (b.part_u, b.part_w, b.out_masks)


def test_extract_quarter_bound_is_attainable_exhaustively():
    # the best balanced one-way bipartition reaches ceil(|E|/4) on small graphs
    rng = random.Random(7)
    for trial in range(15):
        n = rng.randint(2, 6)
        g = _random_oriented(rng, n, 0.8)
        best = 0
        for xs in itertools.combinations(range(n), (n + 1) // 2):
            x = set(xs)
            best = max(best, sum(1 for u, v in g.arcs() if u in x and v not in x))
        assert best >= (g.arc_count + 3) // 4


# --- regularization ----------------------------------------------------------------


def test_almost_regular_complete_bipartite_case1():
    kb = _complete_bipartite(8, 8)
    c = 4.0 * kb.arc_count / (kb.n ** 1.5)
    res = almost_regular_subdigraph(kb, c, r=2, t_override=2)
    # the top half of one side is deleted, leaving a 4x8 complete block
    assert res.n_s == 12
    assert res.subgraph.arc_count == 32
    degs = _total_degrees(res.subgraph)
    assert max(degs) <= res.K * min(degs)
    assert res.K == 40.0
    assert res.subgraph.arc_count >= (res.c / 10.0) * res.n_s ** 1.5 - 1e-9


def test_almost_regular_recursion_through_case2():
    # dense block plus pendant arcs: level 0 and 1 recurse, level 2 settles
    blk, pend = 6, 18
    masks = [((1 << blk) - 1)] * blk + [1 << (blk + i) for i in range(pend)]
    host = BipartiteDigraph(
        tuple(range(blk + pend)),
        tuple(range(blk + pend, 2 * (blk + pend))),
        tuple(masks),
    )
    c = 4.0 * host.arc_count / (host.n ** 1.5)
    res = almost_regular_subdigraph(host, c, r=2, t_override=2)
    assert res.n_s == 9
    assert res.subgraph.arc_count == 18
    degs = _total_degrees(res.subgraph)
    assert max(degs) <= 40 * min(degs)


def test_almost_regular_too_small_when_hub_dominates():
    nu = 20
    masks = [(1 << nu) - 1] + [1 << i for i in range(1, nu)]
    star = BipartiteDigraph(
        tuple(range(nu)), tuple(range(nu, 2 * nu)), tuple(masks)
    )
    c = 4.0 * star.arc_count / (star.n ** 1.5)
    with pytest.raises(TooSmall):
        almost_regular_subdigraph(star, c, r=2, t_override=2)


def test_almost_regular_needs_the_override_at_desk_scale():
    # the derived bucket count exceeds any 16-vertex instance
    kb = _complete_bipartite(8, 8)
    c = 4.0 * kb.arc_count / (kb.n ** 1.5)
    with pytest.raises(TooSmall):
        almost_regular_subdigraph(kb, c, r=2)


def test_almost_regular_rejects_r1_without_override():
    kb = _complete_bipartite(8, 8)
    c = 4.0 * kb.arc_count / kb.n
    with pytest.raises(BadParamsError):
        almost_regular_subdigraph(kb, c, r=1)


@pytest.mark.parametrize("r", [0, -3])
def test_almost_regular_rejects_r_below_one_with_override(r):
    kb = _complete_bipartite(8, 8)
    with pytest.raises(BadParamsError):
        almost_regular_subdigraph(kb, 4.0 * kb.arc_count / kb.n, r=r, t_override=2)


def test_almost_regular_rejects_mismeasured_c():
    kb = _complete_bipartite(8, 8)
    with pytest.raises(BadParamsError):
        almost_regular_subdigraph(kb, 1.0, r=2, t_override=2)


def test_almost_regular_invariants_on_random_extracts():
    rng = random.Random(5)
    returned = 0
    for trial in range(120):
        g = _random_oriented(rng, rng.randint(8, 40), 0.6 + 0.4 * rng.random())
        b = extract_bipartite(g, seed=trial + 1000)
        if b.arc_count == 0:
            continue
        c = 4.0 * b.arc_count / (b.n ** 1.5)
        try:
            res = almost_regular_subdigraph(b, c, r=2, t_override=2)
        except TooSmall:
            continue
        degs = _total_degrees(res.subgraph)
        if degs:
            assert max(degs) <= 40 * min(degs)
        assert res.subgraph.arc_count >= (res.c / 10.0) * res.n_s ** 1.5 - 1e-9
        assert res.K == 40.0 and res.t == 2
        returned += 1
    assert returned >= 50


def test_regularize_result_measured_constants():
    kb = _complete_bipartite(8, 8)
    c = 4.0 * kb.arc_count / (kb.n ** 1.5)
    res = almost_regular_subdigraph(kb, c, r=2, t_override=2)
    degs = _total_degrees(res.subgraph)
    avg = 2.0 * res.subgraph.arc_count / res.n_s
    assert res.K1 == pytest.approx(avg / min(degs))
    assert res.K2 == pytest.approx(avg / max(degs))
    assert res.epsilon == pytest.approx(0.5)


# --- rich sets ---------------------------------------------------------------------


def test_rich_set_threshold_r2():
    # |U| one past h * C(|W|, r) forces an uncolored vertex
    host = _complete_bipartite(10, 3)
    cert = find_rich_set(host, 2, 3)
    assert cert is not None
    assert len(cert.subset) == 3
    assert verify_certificate(host, cert)
    sat = _complete_bipartite(9, 3)
    assert find_rich_set(sat, 2, 3) is None


def test_rich_set_threshold_r1():
    host = _complete_bipartite(7, 3)
    cert = find_rich_set(host, 1, 2)
    assert cert is not None and verify_certificate(host, cert)
    assert find_rich_set(_complete_bipartite(6, 3), 1, 2) is None


def test_rich_set_low_degree_vertices_block_nothing():
    # a low out-degree vertex below threshold size yields no certificate
    host = BipartiteDigraph((0, 1), (2, 3, 4), (1, 7))
    assert find_rich_set(host, 2, 3) is None


def test_rich_set_rejects_bad_params():
    host = _complete_bipartite(4, 2)
    with pytest.raises(BadParamsError):
        find_rich_set(host, 0, 2)
    with pytest.raises(BadParamsError):
        find_rich_set(host, 1, 0)


@given(
    st.integers(1, 40),
    st.integers(1, 8),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_find_rich_set_certificates_verify(nu, nw, r, h, seed):
    host = _random_bipartite(seed, nu, nw)
    cert = find_rich_set(host, r, h)
    if cert is not None:
        assert len(cert.subset) == h and set(cert.subset) <= set(host.part_w)
        assert verify_certificate(host, cert)


def test_verify_certificate_rejects_poor_subsets():
    host = BipartiteDigraph((0, 1), (2, 3), (3, 1))
    bogus = RichSetCertificate(subset=(2, 3), r=1, h=2)
    assert not verify_certificate(host, bogus)


def test_verify_certificate_refuses_unchecked_sizes():
    # C(40, 6) = 3,838,380 subsets is over the cap: no silent pass
    host = _complete_bipartite(2, 40)
    cert = RichSetCertificate(subset=tuple(range(2, 42)), r=6, h=2)
    with pytest.raises(TooLargeError):
        verify_certificate(host, cert)


def test_verify_certificate_matches_column_reference():
    # rows against columns on hosts with empty, full and random rows, more
    # than 64 rows, and subsets that may name ids outside the host
    rng = random.Random(19)
    for _ in range(400):
        nu, nw = rng.randint(0, 150), rng.randint(1, 8)
        host = _mixed_bipartite(rng, nu, nw)
        r, h = rng.randint(1, 3), rng.randint(1, 4)
        certs = [find_rich_set(host, r, h)]
        ids = list(host.part_w) + [nu + nw, -1]
        certs.append(RichSetCertificate(tuple(rng.sample(ids, min(h, len(ids)))), r, h))
        certs.append(RichSetCertificate(tuple(rng.sample(host.part_w, min(h, nw))), r, h))
        for cert in certs:
            if cert is not None:
                assert _outcome(verify_certificate, host, cert) == _outcome(
                    _reference_verify_certificate, host, cert)


def test_verify_certificate_raises_key_error_for_foreign_ids():
    host = _complete_bipartite(3, 2)
    with pytest.raises(KeyError):
        verify_certificate(host, RichSetCertificate(subset=(3, 99), r=2, h=1))


# --- embedding through a certificate -----------------------------------------------


def test_embed_single_arc():
    host = _complete_bipartite(2, 2)
    cert = RichSetCertificate(subset=(2, 3), r=1, h=2)
    assert verify_certificate(host, cert)
    vm = embed_via_rich_set(host, ARC, cert)
    assert verify_bipartite_embedding(host, ARC, vm)


def test_embed_out_star():
    host = _complete_bipartite(3, 3)
    pattern = BipartiteDigraph((0,), (1, 2), (3,))
    cert = RichSetCertificate(subset=(3, 4, 5), r=2, h=3)
    vm = embed_via_rich_set(host, pattern, cert)
    assert verify_bipartite_embedding(host, pattern, vm)
    mapped = vm.as_dict()
    assert mapped[1] == 3 and mapped[2] == 4  # B side follows subset order


def test_embed_gives_twin_pattern_rows_distinct_first_unused_host_rows():
    # host row 0 misses column 4; rows 1 and 2 cover both columns
    host = BipartiteDigraph((0, 1, 2), (3, 4), (0b01, 0b11, 0b11))
    k22 = BipartiteDigraph((0, 1), (2, 3), (0b11, 0b11))
    cert = RichSetCertificate(subset=(3, 4), r=2, h=4)
    vm = embed_via_rich_set(host, k22, cert)
    assert vm.as_dict() == {0: 1, 1: 2, 2: 3, 3: 4}
    assert verify_bipartite_embedding(host, k22, vm)
    one_cover = BipartiteDigraph((0, 1, 2), (3, 4), (0b01, 0b11, 0b01))
    with pytest.raises(CertificateInsufficient):
        embed_via_rich_set(one_cover, k22, cert)


def test_embed_detects_invalid_certificate():
    host = BipartiteDigraph((0,), (1, 2), (1,))
    pattern = BipartiteDigraph((0,), (1, 2), (3,))
    bogus = RichSetCertificate(subset=(1, 2), r=2, h=3)
    with pytest.raises(CertificateInsufficient):
        embed_via_rich_set(host, pattern, bogus)


def test_embed_validates_shapes():
    host = _complete_bipartite(3, 3)
    cert = RichSetCertificate(subset=(3, 4, 5), r=2, h=3)
    with pytest.raises(BadParamsError):
        embed_via_rich_set(host, ARC, cert)  # pattern size != h
    wide = BipartiteDigraph((0,), (1, 2, 3), (7,))
    widecert = RichSetCertificate(subset=(3, 4, 5), r=2, h=4)
    with pytest.raises(BadParamsError):
        embed_via_rich_set(host, wide, widecert)  # out-degree 3 > r


def test_verify_bipartite_embedding_rejects_noninjective():
    from orituran.homomorphism import VertexMap

    host = _complete_bipartite(2, 2)
    vm = VertexMap.of(2, 4, {0: 0, 1: 0})
    assert not verify_bipartite_embedding(host, ARC, vm)


def _broken_maps(rng, host, pattern, vm):
    """Invalid variants of a total map: non-injective, a missing vertex, an
    image on the wrong side or outside the host, and an image moved to a
    random row that may miss an arc."""
    mapping = vm.as_dict()
    keys = sorted(mapping)
    outside = max(host.part_u + host.part_w) + 1
    broken = []
    if len(keys) >= 2:
        a, b = rng.sample(keys, 2)
        broken.append({**mapping, a: mapping[b]})
    broken.append({k: v for k, v in mapping.items() if k != rng.choice(keys)})
    for a in pattern.part_u:
        broken.append({**mapping, a: rng.choice(host.part_w)})
        broken.append({**mapping, a: rng.choice(host.part_u)})
    for b in pattern.part_w:
        broken.append({**mapping, b: rng.choice(host.part_u)})
        broken.append({**mapping, b: rng.choice(host.part_w)})
    broken.append({**mapping, rng.choice(keys): outside})
    return [VertexMap.of(vm.source_n, outside + 1, m) for m in broken]


def test_embedding_and_its_check_match_column_and_copy_references():
    rng = random.Random(23)
    checked = valid = 0
    for _ in range(400):
        nu, nw = rng.randint(1, 150), rng.randint(1, 8)
        host = _mixed_bipartite(rng, nu, nw)
        r, h = rng.randint(1, 3), rng.randint(1, 4)
        pattern = _random_pattern(rng, h, r)
        cert = find_rich_set(host, r, h) or RichSetCertificate(
            tuple(rng.sample(host.part_w, min(h, nw))), r, h)
        got = _outcome(embed_via_rich_set, host, pattern, cert)
        assert got == _outcome(_reference_embed, host, pattern, cert)
        if got[0] != "value":
            continue
        vm = got[1]
        answer = verify_bipartite_embedding(host, pattern, vm)
        assert answer == _reference_verify_embedding(host, pattern, vm)
        valid += answer
        for bad in _broken_maps(rng, host, pattern, vm):
            assert _outcome(verify_bipartite_embedding, host, pattern, bad) == _outcome(
                _reference_verify_embedding, host, pattern, bad)
            checked += 1
    assert valid >= 100 and checked >= 1000


def test_verify_bipartite_embedding_rejects_each_kind_of_bad_map():
    host = BipartiteDigraph((0, 1), (2, 3), (0b01, 0b11))
    good = {0: 1, 1: 2}
    assert verify_bipartite_embedding(host, ARC, VertexMap.of(2, 4, good))
    assert verify_bipartite_embedding(host, ARC, VertexMap.of(2, 4, {0: 0, 1: 2}))
    for bad in (
        {0: 2, 1: 2},  # not injective
        {0: 1},  # a pattern vertex left out
        {0: 2, 1: 3},  # the U vertex on the host's W side
        {0: 1, 1: 0},  # the W vertex on the host's U side
        {0: 1, 1: 9},  # an image outside the host
        {0: 0, 1: 3},  # 0 -> 3 is not a host arc
    ):
        assert not verify_bipartite_embedding(host, ARC, VertexMap.of(2, 10, bad))


def test_verify_bipartite_embedding_checks_images_beyond_64_vertices():
    # a 40-arc matching has 80 vertices, past the OrientedGraph cap
    k = 40
    pattern = BipartiteDigraph(tuple(range(k)), tuple(range(k, 2 * k)),
                               tuple(1 << i for i in range(k)))
    host = _complete_bipartite(k, k)
    vm = VertexMap.of(2 * k, 2 * k, {v: v for v in range(2 * k)})
    assert verify_bipartite_embedding(host, pattern, vm)
    empty = BipartiteDigraph(host.part_u, host.part_w, (0,) * k)
    assert not verify_bipartite_embedding(empty, pattern, vm)


# --- zooming -----------------------------------------------------------------------


def test_zoom_config_probability_rule():
    host = _complete_bipartite(648, 45)
    cfg = ZoomConfig.for_instance(host, r=1, h=2, seed=0)
    assert _random_zoom_stats(host, ARC, cfg)[1]["p"] == pytest.approx(0.9, abs=1e-12)
    assert cfg.d == 45
    at_cap = _complete_bipartite(4 * 2 * 80, 40)
    cfg = ZoomConfig.for_instance(at_cap, r=1, h=2, seed=0)
    assert _random_zoom_stats(at_cap, ARC, cfg)[1]["p"] == 1.0


def test_zoom_finds_verified_embedding():
    host = _complete_bipartite(648, 45)
    cfg = ZoomConfig.for_instance(host, r=1, h=2, seed=42)
    vm = random_zoom(host, ARC, cfg)
    assert verify_bipartite_embedding(host, ARC, vm)


def test_zoom_seeded_reproducibility():
    host = _complete_bipartite(648, 45)
    cfg = ZoomConfig.for_instance(host, r=1, h=2, seed=11)
    assert random_zoom(host, ARC, cfg) == random_zoom(host, ARC, cfg)


def test_zoom_p_equal_one_keeps_whole_w_side():
    host = _complete_bipartite(640, 40)
    cfg = ZoomConfig.for_instance(host, r=1, h=2, seed=7)
    vm, stats = _random_zoom_stats(host, ARC, cfg)
    assert stats == {"p": 1.0, "retries": 1, "w_sampled": 40, "u_kept": 640}
    assert verify_bipartite_embedding(host, ARC, vm)


def test_zoom_truncates_oversized_u():
    big = _complete_bipartite(800, 40)  # cap for r=1, h=2 is 640
    cfg = ZoomConfig.for_instance(big, r=1, h=2, seed=3)
    vm, stats = _random_zoom_stats(big, ARC, cfg)
    assert stats["p"] == 1.0
    assert verify_bipartite_embedding(big, ARC, vm)
    assert all(t < 640 for s, t in vm.mapping if s == 0)  # image stays in the prefix


def test_zoom_rejects_infeasible_configs():
    small = _complete_bipartite(2, 2)
    with pytest.raises(InfeasibleConfig):
        random_zoom(small, ARC, ZoomConfig(r=1, h=2, d=2, seed=1))
    host = _complete_bipartite(648, 45)
    good = ZoomConfig.for_instance(host, r=1, h=2, seed=1)
    pattern3 = BipartiteDigraph((0,), (1, 2), (3,))
    with pytest.raises(InfeasibleConfig):
        random_zoom(host, pattern3, good)  # h mismatch


def test_zoom_rejects_a_config_below_r_or_h_one():
    # a config built directly skips for_instance's check; r = 0 once divided by zero
    host = _complete_bipartite(2, 2)
    one = BipartiteDigraph((0,), (), (0,))
    for cfg in [ZoomConfig(r=0, h=1, d=50, seed=1), ZoomConfig(r=1, h=0, d=50, seed=1)]:
        with pytest.raises(BadParamsError, match="zoom needs r >= 1 and h >= 1"):
            random_zoom(host, one, cfg)


def test_zoom_bytes_are_pinned():
    # seeded mappings plus each accepted trial's sample sizes, sha256 of canonical JSON
    runs = []
    for host, seeds in (
        (_complete_bipartite(648, 45), (0, 11, 42)),
        (_complete_bipartite(640, 40), (7,)),
        (_random_bipartite(2024, 2000, 200), (3, 5)),
    ):
        for seed in seeds:
            cfg = ZoomConfig.for_instance(host, r=1, h=2, seed=seed)
            mapping = [list(pair) for pair in random_zoom(host, ARC, cfg).mapping]
            _, stats = _random_zoom_stats(host, ARC, cfg)
            runs.append([mapping, stats["retries"], stats["w_sampled"], stats["u_kept"]])
    assert _sha(runs) == ZOOM_SHA


# --- pipeline ----------------------------------------------------------------------


def test_pipeline_reports_stage_diagnostics():
    g = _random_oriented(random.Random(3), 60, 0.7)
    res = faks_pipeline(g, ARC, r=1, seed=5, t_override=2)
    assert res.embedding is None  # the zoom gate needs degrees beyond 64 vertices
    names = [name for name, _ in res.stages]
    assert names[0] == "extract"
    assert res.failure is not None
    obj = res.to_json_obj()
    assert obj["embedding"] is None
    assert obj["stages"][0]["stage"] == "extract"
    assert "c" in obj["stages"][0]


def test_pipeline_deterministic():
    g = _random_oriented(random.Random(3), 60, 0.7)
    a = faks_pipeline(g, ARC, r=1, seed=5, t_override=2)
    b = faks_pipeline(g, ARC, r=1, seed=5, t_override=2)
    assert a.failure == b.failure and a.stages == b.stages


def test_pipeline_r1_needs_override():
    g = _random_oriented(random.Random(3), 30, 0.8)
    res = faks_pipeline(g, ARC, r=1, seed=2)
    assert res.embedding is None
    assert res.failure.startswith("regularize:")


def test_pipeline_validates_pattern_shape():
    g = _random_oriented(random.Random(1), 20, 0.8)
    wide = BipartiteDigraph((0,), (1, 2), (3,))
    with pytest.raises(BadParamsError):
        faks_pipeline(g, wide, r=1, seed=0)


def test_pipeline_bytes_are_pinned():
    objs = [
        faks_pipeline(
            _random_oriented(random.Random(seed), 64, 0.8), ARC, r=1, seed=seed, t_override=4
        ).to_json_obj()
        for seed in (3, 4)
    ]
    assert _sha(objs) == PIPELINE_SHA
