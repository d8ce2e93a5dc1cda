"""The lazy meta-graph search: its order, its unreachable branch, and oracle agreement."""
from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations

from csrecon import (
    build_meta_graph,
    isr_to_split_csr,
    split_tar_reachable,
)
from csrecon.generators import greedy_set, random_split_model
from csrecon.oracle import oracle_distance
from csrecon.split_recon import _meta_path

from conftest import all_graphs, cycle_graph


def _materialised_path(model, c, k, start, target):
    """BFS over the materialised meta-graph's sorted adjacency, as node tuples."""
    meta = build_meta_graph(model, c, k)
    src = meta.index[tuple(sorted(start & model.clique_part))]
    dst = meta.index[tuple(sorted(target & model.clique_part))]
    parent = {src: None}
    queue = deque([src])
    while queue:
        i = queue.popleft()
        if i == dst:
            path = []
            while i is not None:
                path.append(meta.nodes[i])
                i = parent[i]
            return path[::-1]
        for j in meta.adj[i]:
            if j not in parent:
                parent[j] = i
                queue.append(j)
    return None


def test_lazy_search_follows_materialised_order():
    rng = random.Random(4242)
    cases = 0
    unreachable = 0
    while cases < 2000:
        n = rng.randint(1, 9)
        c = rng.choice([1, 2, 3])
        model = random_split_model(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
        start = greedy_set(model, c, rng, target=rng.randint(0, n))
        target = greedy_set(model, c, rng, target=rng.randint(0, n))
        for k in range(min(len(start), len(target)) + 1):
            want = _materialised_path(model, c, k, start, target)
            assert _meta_path(model, c, k, start, target) == want, (
                sorted(model.clique_part), model.graph.adjacency, c, start, target, k)
            if start != target:
                assert split_tar_reachable(model, c, start, target, k) == (want is not None)
            cases += 1
            unreachable += want is None
    assert unreachable > 0


def _isr_pairs():
    sources = [*all_graphs(4), cycle_graph(3), cycle_graph(4), cycle_graph(5)]
    for g in sources:
        nbrs = g.adjacency
        for size in range(g.n):
            sets = [set(combo) for combo in combinations(range(g.n), size)
                    if all(not (nbrs[v] & set(combo)) for v in combo)]
            for a in sets:
                for b in sets:
                    if a != b:
                        yield isr_to_split_csr(g, a, b)


def test_isr_images_tj_match_oracle():
    # frozen pairs such as C4 with I={0,2}, I2={1,3} reach the whole-component
    # branch of the search, which seeded split instances practically never do
    pairs = 0
    unreachable = 0
    for out in _isr_pairs():
        start, target = out.phi_start, out.phi_target
        got = split_tar_reachable(out.model, out.c, start, target, len(start) - 1,
                                  max_c=out.c)
        dist, _ = oracle_distance(out.model, out.c, start, target, rule="tj")
        assert got == (dist != math.inf), (out.model.graph.adjacency, start, target)
        pairs += 1
        unreachable += not got
    assert pairs == 1332 and unreachable == 8

