"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

import math
import random
import time
from itertools import combinations

from csrecon import (
    Graph,
    Instance,
    build_meta_graph,
    check_cocomp_order,
    is_colorable_exact,
    isr_to_split_csr,
    model_from_intervals,
    shortest_tar_sequence,
    spr_to_cocomp_csr,
    split_tar_reachable,
    split_tar_witness,
    tar_distance,
    verify_sequence,
)
from csrecon.core import make_tracker
from csrecon.generators import (
    greedy_set,
    random_endpoints,
    random_graph,
    random_split_model,
)
from csrecon.oracle import oracle_distance

from conftest import (
    all_graphs,
    all_shortest_paths,
    complete_graph,
    cycle_graph,
    independent_sets_of_size,
    path_graph,
    star_graph,
)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _interval_suite(count, seed=90210):
    """Seeded interval instances, n <= 12, c in {1,2,3}, k across 0..n."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        c = rng.choice([1, 2, 3])
        sparse = rng.random() < 0.2
        if sparse:
            # sparse with maximal sets: k can reach all the way up to n
            endpoints = random_endpoints(rng, n, coord_max=3 * n, max_len=1)
        else:
            endpoints = random_endpoints(rng, n, coord_max=rng.randint(2, 10))
        model = model_from_intervals(endpoints)
        size_a = n if sparse else rng.randint(0, n)
        size_b = n if sparse else rng.randint(0, n)
        start = greedy_set(model, c, rng, target=size_a)
        target = greedy_set(model, c, rng, target=size_b)
        cap = min(len(start), len(target))
        k = cap if rng.random() < 0.5 else rng.randint(0, cap)
        yield model, c, start, target, k


def _split_suite(count, seed=777001):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        c = rng.choice([1, 2, 3])
        model = random_split_model(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
        start = greedy_set(model, c, rng, target=rng.randint(0, n))
        target = greedy_set(model, c, rng, target=rng.randint(0, n))
        cap = min(len(start), len(target))
        k = cap if rng.random() < 0.5 else rng.randint(0, cap)
        yield model, c, start, target, k


def test_c1_interval_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    infinite = 0
    cs = set()
    ks = set()
    for model, c, start, target, k in _interval_suite(1000):
        verdict = tar_distance(model, c, start, target, k)
        dist, _ = oracle_distance(model, c, start, target, k=k, rule="tar")
        assert verdict.distance == dist, (model.lefts, model.rights, c, start, target, k)
        cases += 1
        cs.add(c)
        ks.add(k)
        if dist == math.inf:
            infinite += 1
    elapsed = time.perf_counter() - started
    ok = cases >= 1000 and cs == {1, 2, 3} and infinite > 0 and elapsed < 120
    _report("criterion 1: interval distance == oracle on 1000 seeded cases", ok,
            f"{cases} cases, {infinite} unreachable, k range {min(ks)}..{max(ks)}, "
            f"{elapsed:.1f}s")


def test_c2_golden_case_coverage(e1_model, e2_model, e3_model, e4_model, e5_model):
    golden = [
        (e1_model, {0}, {2}, "case1", 2),
        (e2_model, {0}, {1}, "locked-in-G", math.inf),
        (e3_model, {1}, {2}, "case3b", 6),
        (e4_model, {1}, {0, 2}, "case2", 5),
        (e5_model, {0}, {1}, "case3a", 4),
    ]
    ok = True
    for model, start, target, case, dist in golden:
        verdict = tar_distance(model, 1, start, target, 1)
        oracle, _ = oracle_distance(model, 1, start, target, k=1, rule="tar")
        ok = ok and verdict.case == case and verdict.distance == dist and oracle == dist
    _report("criterion 2: five hand instances hit all verdicts at oracle distances", ok)


def test_c3_sequence_validity():
    failures = 0
    produced = 0
    for model, c, start, target, k in _interval_suite(1000):
        verdict = tar_distance(model, c, start, target, k)
        seq = shortest_tar_sequence(model, c, start, target, k, verdict=verdict)
        if verdict.distance == math.inf:
            if seq is not None:
                failures += 1
            continue
        produced += 1
        inst = Instance(model, "tar", c, k, start, target)
        result = verify_sequence(inst, seq)
        if not result.ok or len(seq.steps) != verdict.distance:
            failures += 1
    for model, c, start, target, k in _split_suite(400):
        seq = split_tar_witness(model, c, start, target, k)
        if seq is None:
            continue
        produced += 1
        inst = Instance(model, "tar", c, k, start, target)
        if not verify_sequence(inst, seq).ok:
            failures += 1
    _report("criterion 3: every emitted sequence verifies at the reported length",
            failures == 0, f"{produced} sequences, {failures} failures")


def test_c4_tar_tj_relation():
    rng = random.Random(24601)
    cases = 0
    while cases < 300:
        n = rng.randint(1, 11)
        c = rng.choice([1, 2, 3])
        endpoints = random_endpoints(rng, n, coord_max=rng.randint(2, 9))
        model = model_from_intervals(endpoints)
        start = greedy_set(model, c, rng, target=rng.randint(1, n))
        target = greedy_set(model, c, rng, target=len(start))
        while len(target) > len(start):
            target.remove(max(target))
        if not start or len(start) != len(target):
            continue
        k = len(start) - 1
        tar = tar_distance(model, c, start, target, k).distance
        tj, _ = oracle_distance(model, c, start, target, rule="tj")
        assert (tar == math.inf) == (tj == math.inf)
        if tar != math.inf:
            assert tar == 2 * tj
        cases += 1
    _report("criterion 4: TAR(k) distance is twice the swap distance at size k+1",
            cases >= 300, f"{cases} cases")


def test_c5_split_oracle_equivalence():
    cases = 0
    unreachable = 0
    for model, c, start, target, k in _split_suite(1000):
        got = split_tar_reachable(model, c, start, target, k)
        dist, _ = oracle_distance(model, c, start, target, k=k, rule="tar")
        assert got == (dist != math.inf), (sorted(model.clique_part), c, start, target, k)
        cases += 1
        if not got:
            unreachable += 1
    _report("criterion 5: split reachability == oracle on 1000 seeded cases",
            cases >= 1000 and unreachable > 0,
            f"{cases} cases, {unreachable} unreachable")


# --- criterion 6: reduction certificates --------------------------------------

def _isr_sources():
    for n in range(1, 5):
        yield from all_graphs(n)
    yield from (path_graph(5), cycle_graph(5), complete_graph(5), star_graph(5),
                path_graph(6), cycle_graph(6), complete_graph(6), star_graph(6))
    rng = random.Random(5150)
    for _ in range(12):
        yield random_graph(rng, rng.choice([5, 6]), p=rng.random())


def _check_isr_source(g):
    """Claims and one-step equivalence, exhaustively for every feasible set size."""
    checks = 0
    for size in range(1, g.n):
        if g.n - size < 1:
            continue
        sets = list(independent_sets_of_size(g, size))
        if not sets:
            continue
        out = isr_to_split_csr(g, sets[0], sets[0])
        model, c, k = out.model, out.c, out.k
        total = model.n
        nbrs = model.graph.adjacency
        # colorable images
        for s in sets:
            assert is_colorable_exact(model.graph, out.phi(s), c), (g.adjacency, s)
            checks += 1
        # image characterization: every colorable set of the image size is an image
        edge_vertices = set(range(g.n, total))
        for removed in combinations(range(total), total - k):
            cand = set(range(total)) - set(removed)
            if not make_tracker(model, cand, c).colorable():
                continue
            assert edge_vertices <= cand
            outside = set(range(g.n)) - cand
            assert all(not g.has_edge(u, v)
                       for u, v in combinations(sorted(outside), 2))
            checks += 1
        # one-step relations transfer through the mapping
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                pa, pb = out.phi(a), out.phi(b)
                src_one = len(a - b) == 1
                tj_one = len(pa ^ pb) == 2
                ts_one = False
                tar_two = False
                if tj_one:
                    u, v = sorted(pa ^ pb)
                    ts_one = v in nbrs[u]
                    mid = pa & pb
                    tar_two = len(mid) >= k - 1 and \
                        make_tracker(model, mid, c).colorable()
                assert src_one == ts_one == tj_one == tar_two
                checks += 1
    return checks


def _spr_sources():
    yield cycle_graph(4), 0, 2
    yield cycle_graph(6), 0, 3
    theta = Graph(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])
    yield theta, 0, 4
    grid = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    yield grid, 0, 5
    rng = random.Random(31415)
    produced = 0
    while produced < 10:
        g = random_graph(rng, rng.randint(4, 8), p=rng.random())
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        paths = all_shortest_paths(g, s, t) if s != t else []
        if not paths or not 2 <= len(paths[0]) - 1 <= 3:
            continue
        produced += 1
        yield g, s, t


def _check_spr_source(g, s, t, c):
    paths = all_shortest_paths(g, s, t)
    if not paths:
        return 0
    out = spr_to_cocomp_csr(g, s, t, paths[0], paths[-1], c)
    assert check_cocomp_order(out.graph, out.order) is None
    checks = 1
    nbrs = out.graph.adjacency
    pad = {v for group in out.padding for v in group}
    layer_of = {}
    for i, ids in enumerate(out.layers):
        for v in ids:
            layer_of[v] = i
    # every colorable set of the image size contains the padding and reads
    # off a shortest path, one vertex per layer
    for combo in combinations(range(out.graph.n), out.k):
        cand = set(combo)
        if not is_colorable_exact(out.graph, cand, c):
            continue
        assert pad <= cand
        core = sorted(cand - pad, key=lambda v: layer_of[v])
        assert [layer_of[v] for v in core] == list(range(len(out.layers)))
        orig = [out.source_vertex[v] for v in core]
        assert orig[0] == s and orig[-1] == t
        assert all(g.has_edge(u, v) for u, v in zip(orig, orig[1:]))
        checks += 1
    # one-step equivalence across every pair of shortest paths
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            pa, pb = out.phi(a), out.phi(b)
            differ_one = sum(x != y for x, y in zip(a, b)) == 1
            tj_one = len(pa ^ pb) == 2
            ts_one = False
            tar_two = False
            if tj_one:
                u, v = sorted(pa ^ pb)
                ts_one = v in nbrs[u]
                mid = pa & pb
                tar_two = len(mid) >= out.k - 1 and \
                    is_colorable_exact(out.graph, mid, c)
            assert differ_one == tj_one == ts_one == tar_two
            checks += 1
    return checks


def test_c6_reduction_certificates():
    checks = 0
    sources = 0
    for g in _isr_sources():
        sources += 1
        checks += _check_isr_source(g)
    for g, s, t in _spr_sources():
        for c in (1, 2):
            checks += _check_spr_source(g, s, t, c)
    _report("criterion 6: reduction certificates hold on the exhaustive corpus",
            checks > 2000 and sources > 80,
            f"{sources} reconfiguration sources, {checks} individual checks")


# --- criterion 7: linear scaling ----------------------------------------------

def _timed_solve(n, seed):
    rng = random.Random(seed)
    endpoints = random_endpoints(rng, n, coord_max=2 * n, max_len=6)
    warm = model_from_intervals(endpoints)
    start = greedy_set(warm, 2, rng)
    target = greedy_set(warm, 2, rng)
    begin = time.perf_counter()
    model = model_from_intervals(endpoints)
    verdict = tar_distance(model, 2, start, target, 0)
    seq = shortest_tar_sequence(model, 2, start, target, 0, verdict=verdict)
    elapsed = time.perf_counter() - begin
    assert len(seq.steps) == verdict.distance
    return elapsed


def test_c7_linear_scaling():
    t4 = min(_timed_solve(10**4, s) for s in (1, 2, 3))
    t5 = min(_timed_solve(10**5, s) for s in (1, 2, 3))
    t6 = min(_timed_solve(10**6, s) for s in (1, 2))
    slope = (t5 - t4) / (10**5 - 10**4)
    predicted = t5 + slope * (10**6 - 10**5)
    ratio = t6 / predicted
    ok = ratio <= 2.5 and t6 < 10.0
    _report("criterion 7: solve scales linearly to a million vertices", ok,
            f"t(1e4)={t4:.3f}s t(1e5)={t5:.3f}s t(1e6)={t6:.2f}s, "
            f"{ratio:.2f}x the linear fit")


# --- criterion 8: meta-graph size and growth -----------------------------------

def _node_bound(model, c):
    size_k = len(model.clique_part)
    return sum(math.comb(size_k, i) for i in range(min(c, size_k) + 1))


def _timed_meta(n, seed):
    rng = random.Random(seed)
    kpart = set(range(n // 2))
    edges = [(u, v) for u in sorted(kpart) for v in sorted(kpart) if u < v]
    from csrecon import SplitModel

    for u in range(n // 2, n):
        for v in sorted(kpart):
            if rng.random() < 0.5:
                edges.append((u, v))
    model = SplitModel(Graph(n, edges), kpart)
    begin = time.perf_counter()
    meta = build_meta_graph(model, 2, n // 4)
    elapsed = time.perf_counter() - begin
    assert len(meta.nodes) <= _node_bound(model, 2)
    return elapsed


def test_c8_meta_graph_bounds():
    for model, c, start, target, k in _split_suite(150, seed=60601):
        meta = build_meta_graph(model, c, k)
        assert len(meta.nodes) <= _node_bound(model, c)
    t50 = min(_timed_meta(50, s) for s in (1, 2, 3))
    t100 = min(_timed_meta(100, s) for s in (1, 2, 3))
    t200 = min(_timed_meta(200, s) for s in (1, 2, 3))
    slack = 1.75
    ok = t100 <= 8 * slack * t50 and t200 <= 8 * slack * t100
    _report("criterion 8: meta-graph within the binomial node bound, cubic growth",
            ok, f"t(50)={t50*1e3:.1f}ms t(100)={t100*1e3:.1f}ms t(200)={t200*1e3:.1f}ms")
