"""The three hardness constructions and their correctness contracts."""
from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations, permutations

import pytest

from csrecon import (
    Graph,
    InvariantError,
    check_cocomp_order,
    is_colorable_exact,
    isr_to_split_csr,
    oct_to_colorable_set,
    spr_to_cocomp_csr,
)
from csrecon.core import make_tracker
from csrecon.generators import random_graph

from conftest import (
    all_graphs,
    all_shortest_paths,
    brute_force_colorable,
    complete_graph,
    cycle_graph,
    independent_sets_of_size,
    path_graph,
    star_graph,
)


# --- odd-cycle-transversal join construction --------------------------------

def _has_oct_up_to(g, k):
    """Reference: some vertex set of size <= k whose removal leaves the graph bipartite."""
    for size in range(k + 1):
        for removed in combinations(range(g.n), size):
            if brute_force_colorable(g, set(range(g.n)) - set(removed), 2):
                return True
    return False


def _has_colorable_of_size(g, c, size):
    drop = g.n - size
    for removed in combinations(range(g.n), drop):
        if is_colorable_exact(g, set(range(g.n)) - set(removed), c):
            return True
    return False


def test_oct_c2_is_identity():
    g = cycle_graph(5)
    out = oct_to_colorable_set(g, 2, 1)
    assert out.graph == g and out.padding_cliques == []
    assert out.target_size == g.n - 1


def test_oct_structure():
    g = path_graph(3)
    out = oct_to_colorable_set(g, 4, 1)
    assert out.graph.n == 3 + 3 * 2
    flat = [v for group in out.padding_cliques for v in group]
    assert sorted(flat) == list(range(3, 9))
    for group in out.padding_cliques:
        for u in group:
            for v in range(3):
                assert out.graph.has_edge(u, v)
            for other in out.padding_cliques:
                if other is not group:
                    assert all(not out.graph.has_edge(u, w) for w in other)


def test_oct_examples():
    # removing any one vertex of the 5-cycle leaves a path: bipartite
    out = oct_to_colorable_set(cycle_graph(5), 3, 1)
    assert out.graph.n == 10
    assert _has_oct_up_to(cycle_graph(5), 1)
    assert _has_colorable_of_size(out.graph, 3, out.target_size)

    out = oct_to_colorable_set(complete_graph(3), 2, 1)
    assert _has_oct_up_to(complete_graph(3), 1)
    assert _has_colorable_of_size(out.graph, 2, out.target_size)


def test_oct_contract_exhaustive_small():
    rng = random.Random(65)
    pool = [g for g in all_graphs(4)]
    sample = [pool[rng.randrange(len(pool))] for _ in range(12)]
    sample += [cycle_graph(5), complete_graph(4), star_graph(5)]
    for g in sample:
        for c in (2, 3):
            for k in range(g.n):
                out = oct_to_colorable_set(g, c, k)
                assert _has_oct_up_to(g, k) == \
                    _has_colorable_of_size(out.graph, c, out.target_size)


def test_oct_rejects_bad_parameters():
    with pytest.raises(InvariantError):
        oct_to_colorable_set(path_graph(3), 1, 1)
    with pytest.raises(InvariantError):
        oct_to_colorable_set(path_graph(3), 2, 3)


# --- independent-set-reconfiguration split construction ----------------------

def test_isr_k3_example():
    g = complete_graph(3)
    out = isr_to_split_csr(g, {0}, {1})
    assert out.c == 2 and out.k == 5
    assert out.model.n == 6
    assert out.phi_start == set(range(6)) - {0}
    assert len(out.phi_start) == 5
    assert is_colorable_exact(out.model.graph, out.phi_start, out.c)
    assert make_tracker(out.model, out.phi_start, out.c).colorable()


def test_isr_identity_maps_identically():
    g = path_graph(4)
    out = isr_to_split_csr(g, {0, 2}, {0, 2})
    assert out.phi_start == out.phi_target


def test_isr_rejects_bad_inputs():
    g = path_graph(3)
    with pytest.raises(InvariantError, match="independent"):
        isr_to_split_csr(g, {0, 1}, {0, 2})
    with pytest.raises(InvariantError, match="size"):
        isr_to_split_csr(g, {0}, {0, 2})


def _one_step_relations_isr(g, size):
    """Source and image one-step relations over all independent sets of a size."""
    sets = list(independent_sets_of_size(g, size))
    if not sets:
        return None
    out = isr_to_split_csr(g, sets[0], sets[0])
    model, c, k = out.model, out.c, out.k
    nbrs = model.graph.adjacency
    rel = {"src": set(), "ts": set(), "tj": set(), "tar2": set()}
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            b = sets[j]
            pa, pb = out.phi(a), out.phi(b)
            if len(a - b) == 1 and len(b - a) == 1:
                rel["src"].add((i, j))
            if len(pa ^ pb) == 2:
                u, v = sorted(pa ^ pb)
                rel["tj"].add((i, j))
                if v in nbrs[u]:
                    rel["ts"].add((i, j))
                mid = pa & pb
                if len(mid) >= k - 1 and make_tracker(model, mid, c).colorable():
                    rel["tar2"].add((i, j))
    return rel


def test_isr_one_step_equivalence_small():
    graphs = [path_graph(3), path_graph(4), cycle_graph(4), cycle_graph(5),
              star_graph(4), complete_graph(3)]
    checked = 0
    for g in graphs:
        for size in range(1, g.n):
            rel = _one_step_relations_isr(g, size)
            if rel is None or g.n - size < 1:
                continue
            assert rel["src"] == rel["ts"] == rel["tj"] == rel["tar2"]
            checked += 1
    assert checked >= 8


def _claim_bijection_isr(g, size):
    """Every colorable set of the image size is the image of an independent set."""
    sets = list(independent_sets_of_size(g, size))
    if not sets:
        return 0
    out = isr_to_split_csr(g, sets[0], sets[0])
    model, c = out.model, out.c
    total = model.n
    edge_vertices = set(range(g.n, total))
    count = 0
    for removed in combinations(range(total), total - out.k):
        s = set(range(total)) - set(removed)
        if not make_tracker(model, s, c).colorable():
            continue
        count += 1
        assert edge_vertices <= s
        outside = set(range(g.n)) - s
        assert all(not g.has_edge(u, v) for u, v in combinations(sorted(outside), 2))
        assert len(outside) == size
    return count


def test_isr_image_characterization_small():
    confirmed = 0
    for g in [path_graph(3), cycle_graph(4), star_graph(4), complete_graph(4)]:
        for size in range(1, g.n):
            confirmed += _claim_bijection_isr(g, size)
    assert confirmed > 10


# --- shortest-path-reconfiguration layered construction ----------------------

def test_spr_c4_example():
    g = cycle_graph(4)  # 0-1-2-3-0; s=0, t=2; the two paths go via 1 and via 3
    out = spr_to_cocomp_csr(g, 0, 2, [0, 1, 2], [0, 3, 2], 2)
    assert out.graph.n == 4 + 3 * 1
    assert out.k == 6
    assert len(out.phi_start) == 6
    assert is_colorable_exact(out.graph, out.phi_start, 2)
    diff = out.phi_start ^ out.phi_target
    assert len(diff) == 2
    u, v = sorted(diff)
    assert out.graph.has_edge(u, v)  # the two middle vertices share a layer clique
    assert check_cocomp_order(out.graph, out.order) is None


def test_spr_c1_has_no_padding():
    g = cycle_graph(4)
    out = spr_to_cocomp_csr(g, 0, 2, [0, 1, 2], [0, 3, 2], 1)
    assert all(group == [] for group in out.padding)
    assert out.graph.n == 4 and out.k == 3


def test_spr_drops_off_path_vertices():
    # a pendant vertex at distance 1 from s but far from t is not layered
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    out = spr_to_cocomp_csr(g, 0, 3, [0, 1, 2, 3], [0, 1, 2, 3], 1)
    assert sorted(out.source_vertex.values()) == [0, 1, 2, 3]


def test_spr_rejects_bad_paths():
    g = cycle_graph(4)
    with pytest.raises(InvariantError):
        spr_to_cocomp_csr(g, 0, 2, [0, 1, 2, 3], [0, 3, 2], 2)
    with pytest.raises(InvariantError):
        spr_to_cocomp_csr(g, 0, 2, [0, 2], [0, 3, 2], 2)
    with pytest.raises(InvariantError):
        spr_to_cocomp_csr(Graph(3, [(0, 1)]), 0, 2, [0, 2], [0, 2], 2)


def _spr_one_step_equivalence(g, s, t, c):
    paths = all_shortest_paths(g, s, t)
    if len(paths) < 2:
        return 0
    out = spr_to_cocomp_csr(g, s, t, paths[0], paths[1], c)
    nbrs = out.graph.adjacency
    checked = 0
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            differ_one = sum(x != y for x, y in zip(a, b)) == 1
            pa, pb = out.phi(a), out.phi(b)
            tj_one = len(pa ^ pb) == 2
            ts_one = tj_one and (lambda pair: pair[1] in nbrs[pair[0]])(sorted(pa ^ pb))
            mid = pa & pb
            tar2 = tj_one and len(mid) >= out.k - 1 and \
                is_colorable_exact(out.graph, mid, c)
            assert differ_one == ts_one == tj_one == tar2
            checked += 1
    return checked


def test_spr_one_step_equivalence():
    checked = 0
    checked += _spr_one_step_equivalence(cycle_graph(4), 0, 2, 2)
    checked += _spr_one_step_equivalence(cycle_graph(6), 0, 3, 2)
    # two crossing 4-paths sharing endpoints
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 4)])
    checked += _spr_one_step_equivalence(g, 0, 5, 2)
    checked += _spr_one_step_equivalence(g, 0, 5, 1)
    assert checked >= 6


def _claim_image_characterization_spr(g, s, t, c):
    paths = all_shortest_paths(g, s, t)
    if len(paths) < 1:
        return 0
    out = spr_to_cocomp_csr(g, s, t, paths[0], paths[0], c)
    pad = {v for group in out.padding for v in group}
    layer_of = {}
    for i, ids in enumerate(out.layers):
        for v in ids:
            layer_of[v] = i
    count = 0
    total = out.graph.n
    for combo in combinations(range(total), out.k):
        s_set = set(combo)
        if not is_colorable_exact(out.graph, s_set, c):
            continue
        count += 1
        assert pad <= s_set
        core = sorted(s_set - pad, key=lambda v: layer_of[v])
        assert len(core) == len(out.layers)
        assert [layer_of[v] for v in core] == list(range(len(out.layers)))
        orig = [out.source_vertex[v] for v in core]
        assert orig[0] == s and orig[-1] == t
        for u, v in zip(orig, orig[1:]):
            assert g.has_edge(u, v)
    return count


def test_spr_image_characterization():
    confirmed = 0
    confirmed += _claim_image_characterization_spr(cycle_graph(4), 0, 2, 2)
    confirmed += _claim_image_characterization_spr(cycle_graph(6), 0, 3, 2)
    confirmed += _claim_image_characterization_spr(cycle_graph(4), 0, 2, 1)
    assert confirmed >= 5


# --- co-comparability order checking -----------------------------------------

def test_check_cocomp_order_complete():
    g = complete_graph(5)
    for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
        assert check_cocomp_order(g, order) is None


def test_check_cocomp_order_c4_exhaustive():
    g = cycle_graph(4)
    passing = [order for order in permutations(range(4))
               if check_cocomp_order(g, list(order)) is None]
    assert passing  # the 4-cycle admits an umbrella-free order
    assert check_cocomp_order(g, [0, 2, 1, 3]) is None
    bad = check_cocomp_order(g, [0, 1, 2, 3])
    assert bad is None or len(bad) == 3
    # a graph with no valid order: triangle with three pendants
    net = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    assert all(check_cocomp_order(net, list(order)) is not None
               for order in permutations(range(6)))


def test_check_cocomp_order_matches_brute_force():
    """The first umbrella triple of a scan over every position triple a < b < c, ordered
    by a, then c, then b."""
    def brute(g, order):
        nbrs = g.adjacency
        for a, c in combinations(range(len(order)), 2):
            for b in range(a + 1, c):
                u, v, w = order[a], order[b], order[c]
                if w in nbrs[u] and v not in nbrs[u] and v not in nbrs[w]:
                    return (u, v, w)
        return None

    rng = random.Random(23)
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, p=rng.random())
        order = list(range(n))
        rng.shuffle(order)
        expected = brute(g, order)
        assert check_cocomp_order(g, order) == expected
        found += expected is not None
    assert found > 200


def test_check_cocomp_order_scans_only_later_neighbours():
    # the spr image of a 4,000-vertex path at c = 2 has 8,000 vertices, each with a
    # handful of neighbours nearby in the order, so a scan of every position pair
    # (32 million of them) does far more work than one of each vertex's later neighbours
    n = 4000
    out = spr_to_cocomp_csr(path_graph(n), 0, n - 1, list(range(n)), list(range(n)), 2)
    start = time.perf_counter()
    assert check_cocomp_order(out.graph, out.order) is None
    assert time.perf_counter() - start < 0.25


def test_check_cocomp_order_builds_masks_only_where_it_looks():
    # every position of the spr image of a path sees all positions up to its last
    # neighbour, so no mask is looked up; building masks and position lists for all
    # 40,000 positions up front peaked at 9.5 MiB
    n = 20000
    out = spr_to_cocomp_csr(path_graph(n), 0, n - 1, list(range(n)), list(range(n)), 2)
    tracemalloc.start()
    try:
        assert check_cocomp_order(out.graph, out.order) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak / 2 ** 20


def test_check_cocomp_order_is_fast_on_a_complete_graph():
    # all 79,800 position pairs are adjacent and no middle position is unseen, so
    # a scan of each pair's middle positions does cubic work (0.4 s at n = 400)
    g = complete_graph(400)
    start = time.perf_counter()
    assert check_cocomp_order(g, list(range(400))) is None
    assert time.perf_counter() - start < 0.1


def test_check_cocomp_order_rejects_non_permutation():
    with pytest.raises(InvariantError):
        check_cocomp_order(path_graph(3), [0, 1])
    with pytest.raises(InvariantError):
        check_cocomp_order(path_graph(3), [0, 1, 1])


def test_emitted_orders_always_pass():
    rng = random.Random(17)
    from csrecon.reductions import _bfs_dist

    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(2, 8), p=rng.random())
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        dist = _bfs_dist(g, s)
        if s == t or dist[t] == float("inf") or dist[t] > 3:
            continue
        paths = all_shortest_paths(g, s, t)
        if not paths:
            continue
        c = rng.choice([1, 2, 3])
        out = spr_to_cocomp_csr(g, s, t, paths[0], paths[-1], c)
        assert check_cocomp_order(out.graph, out.order) is None
        checked += 1
