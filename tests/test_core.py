"""Graph types, colorability tests, split recognition, and model construction."""
from __future__ import annotations

import random
import time
import tracemalloc
from collections.abc import Set as AbstractSet
from itertools import combinations

import pytest

from csrecon import (
    Graph,
    InvariantError,
    ResourceLimitError,
    SplitModel,
    check_sets,
    is_colorable_exact,
    model_from_intervals,
    split_partition,
)
from csrecon import core, oracle
from csrecon.core import bfs, bfs_path, make_tracker, shortest_path
from csrecon.generators import greedy_set, random_endpoints, random_graph, random_split_model

from conftest import (
    all_graphs,
    brute_force_colorable,
    brute_force_split_partition,
    complete_graph,
    cycle_graph,
    graph_from_model,
    path_graph,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (3, 0)])
    assert g.m == 3
    assert g.adjacency[1] == {0, 2}
    assert all(isinstance(nbrs, AbstractSet) for nbrs in g.adjacency)
    assert g.has_edge(1, 2) and not g.has_edge(2, 3)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]
    g = Graph(6, [(4, 5), (3, 0), (5, 1), (0, 4), (2, 0), (1, 3)])
    assert list(g.edges()) == sorted(g.edges())
    with pytest.raises(InvariantError, match=r"^parallel edge \(1, 2\)$"):
        Graph(3, [(0, 1), (1, 2), (2, 1), (1, 0)])


def test_isolated_vertices_cost_no_set_each():
    tracemalloc.start()
    try:
        g = Graph(200_000, [(0, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.adjacency[2] == set() and g.degree(199_999) == 0
    assert peak < 4 * 2**20, peak


def test_graph_rejects_bad_edges():
    with pytest.raises(InvariantError):
        Graph(2, [(0, 0)])
    with pytest.raises(InvariantError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(InvariantError):
        Graph(2, [(0, 5)])


def test_graph_edge_errors_name_the_fault():
    with pytest.raises(InvariantError, match=r"^vertex index out of range in edge \(0, 5\)$"):
        Graph(2, [(0, 5)])
    with pytest.raises(InvariantError, match=r"^loop at vertex 1$"):
        Graph(2, [(1, 1)])
    with pytest.raises(InvariantError, match=r"^parallel edge \(0, 1\)$"):
        Graph(2, [(1, 0), (0, 1)])


def test_empty_graph_is_legal():
    g = Graph(0)
    assert g.n == 0 and g.m == 0
    assert model_from_intervals([]).t == 0


# --- colorability -----------------------------------------------------------

def test_clique_bound_interval_path():
    model = model_from_intervals([(1, 1), (1, 2), (2, 2)])
    assert not make_tracker(model, {0, 1}, 1).colorable()
    assert make_tracker(model, {0, 2}, 1).colorable()
    assert make_tracker(model, set(), 1).colorable()


def _pqr_uw_model():
    # clique {p,q,r}=0,1,2; independent u=3 ~ {p,q}, w=4 ~ {q,r}
    edges = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 1), (4, 2)]
    return SplitModel(Graph(5, edges), {0, 1, 2})


def test_clique_bound_split_example():
    model = _pqr_uw_model()
    assert not make_tracker(model, {0, 1, 3}, 2).colorable()
    # exact backtracking agrees
    assert not is_colorable_exact(model.graph, {0, 1, 3}, 2)
    assert make_tracker(model, set(), 2).colorable()
    assert make_tracker(model, {0, 2, 3}, 2).colorable()


def test_exact_coloring_small_cases():
    assert not is_colorable_exact(complete_graph(3), {0, 1, 2}, 2)
    assert is_colorable_exact(cycle_graph(4), {0, 1, 2, 3}, 2)
    # reference check by enumerating every 2-coloring of the 5-cycle
    c5 = cycle_graph(5)
    assert not brute_force_colorable(c5, range(5), 2)
    assert not is_colorable_exact(c5, {0, 1, 2, 3, 4}, 2)


def test_exact_coloring_guard():
    g = Graph(70)
    with pytest.raises(ResourceLimitError):
        is_colorable_exact(g, range(66), 1)
    assert is_colorable_exact(g, range(66), 1, limit=70)
    # the linear c <= 2 search keeps the guard too
    with pytest.raises(ResourceLimitError, match="exact coloring guard: set size 65 exceeds 64"):
        is_colorable_exact(path_graph(70), range(65), 2)
    assert is_colorable_exact(path_graph(70), range(65), 2, limit=65)


def test_exact_matches_brute_force_random():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(0, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        members = {v for v in range(n) if rng.random() < 0.6}
        c = rng.randint(1, 3)
        assert is_colorable_exact(g, members, c) == brute_force_colorable(g, members, c)


def test_exact_classes_match_brute_force_and_color_properly():
    rng = random.Random(13)
    refused = {1: 0, 2: 0, 3: 0}
    for _ in range(600):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, p=rng.uniform(0.05, 0.5))
        c = rng.randint(1, 3)
        # the brute force tries c^|S| colorings: keep |S| small at c = 3
        members = set(rng.sample(range(n), rng.randint(0, n if c < 3 else min(n, 8))))
        classes = core._exact_classes(g, members, c)
        assert (classes is not None) == brute_force_colorable(g, members, c), \
            (g.adjacency, members, c)
        if classes is None:
            refused[c] += 1
            continue
        assert len(classes) == min(c, n)
        union = 0
        for cls in classes:
            assert not union & cls
            union |= cls
            assert not any(cls & g.neighbor_masks[v] for v in members if cls >> v & 1)
        assert union == sum(1 << v for v in members)
    assert all(refused.values())


def test_clique_bound_agrees_with_exact_interval_and_split():
    rng = random.Random(23)
    cases = 0
    while cases < 1000:
        n = rng.randint(1, 12)
        c = rng.choice([1, 2, 3])
        if rng.random() < 0.5:
            model = model_from_intervals(random_endpoints(rng, n, coord_max=rng.randint(2, 9)))
            g = graph_from_model(model)
        else:
            model = random_split_model(rng, n, p=rng.random())
            g = model.graph
        members = {v for v in range(n) if rng.random() < 0.5}
        assert make_tracker(model, members, c).colorable() == \
            is_colorable_exact(g, members, c)
        if is_colorable_exact(g, members, c):
            tracker = make_tracker(model, members, c)
            for v in set(range(n)) - members:
                assert tracker.can_add(v) == is_colorable_exact(g, members | {v}, c)
        cases += 1


def test_interval_addable_scan_matches_brute_force():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 12)
        c = rng.choice([1, 2, 3])
        model = model_from_intervals(random_endpoints(rng, n, coord_max=rng.randint(2, 9)))
        g = graph_from_model(model)
        members = greedy_set(model, c, rng, target=rng.randint(0, n))
        among = {v for v in range(n) if rng.random() < 0.5}
        fits = [v for v in range(n)
                if v not in members and is_colorable_exact(g, members | {v}, c)]
        tracker = make_tracker(model, members, c)
        assert list(tracker.addable()) == fits
        assert list(tracker.addable(among)) == [v for v in fits if v in among]


# --- split recognition ------------------------------------------------------

def test_split_partition_examples():
    model = split_partition(complete_graph(3))
    assert model is not None and model.clique_part == {0, 1, 2} and not model.independent_part
    assert split_partition(cycle_graph(4)) is None
    assert brute_force_split_partition(cycle_graph(4)) is None
    p3 = path_graph(3)
    model = split_partition(p3)
    assert model is not None
    assert brute_force_split_partition(p3) is not None
    assert model.clique_part in ({0, 1}, {1, 2})


def test_split_partition_all_small_graphs():
    for n in range(0, 6):
        for g in all_graphs(n):
            got = split_partition(g)
            want = brute_force_split_partition(g)
            assert (got is None) == (want is None)


def test_split_partition_random_larger():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < rng.random()])
        got = split_partition(g)
        want = brute_force_split_partition(g)
        assert (got is None) == (want is None)
        if got is not None:
            # SplitModel's constructor has already verified the partition
            assert got.clique_part | got.independent_part == set(range(n))


def test_split_model_derives_the_independent_part():
    assert _pqr_uw_model().independent_part == {3, 4}
    rng = random.Random(17)
    for _ in range(50):
        model = random_split_model(rng, rng.randint(0, 12))
        assert model.independent_part == set(range(model.n)) - model.clique_part


def test_split_model_costs_nothing_per_independent_vertex():
    g = Graph(200_000, [(0, 1)])
    tracemalloc.start()
    try:
        model = SplitModel(g, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.clique_part == {0} and len(model.independent_part) == 199_999
    assert peak < 2**20, peak


def test_split_model_rejects_bad_partition():
    g = path_graph(3)
    with pytest.raises(InvariantError, match="^clique part is not a clique$"):
        SplitModel(g, {0, 2})
    with pytest.raises(InvariantError, match="^independent part is not independent$"):
        SplitModel(g, {0})
    with pytest.raises(InvariantError, match="^partition contains a vertex index out of range$"):
        SplitModel(g, {1, 3})


# --- interval model construction --------------------------------------------

def _cliques(model):
    """Member lists of M_1..M_t, read off the runs."""
    return [[v for v, (l, r) in enumerate(zip(model.lefts, model.rights)) if l <= i <= r]
            for i in range(1, model.t + 1)]


def test_model_examples():
    model = model_from_intervals([(1, 1), (1, 2), (2, 2)])
    assert model.t == 2
    assert _cliques(model) == [[0, 1], [1, 2]]
    assert list(zip(model.lefts, model.rights)) == [(1, 1), (1, 2), (2, 2)]

    single = model_from_intervals([(5, 9)])
    assert single.t == 1 and _cliques(single) == [[0]]
    assert list(zip(single.lefts, single.rights)) == [(1, 1)]

    twin = model_from_intervals([(1, 2), (1, 2)])
    assert twin.t == 1 and _cliques(twin) == [[0, 1]]


def test_model_retains_two_ints_per_vertex():
    n = 10_000
    endpoints = random_endpoints(random.Random(21), n, coord_max=2 * n, max_len=6)
    tracemalloc.start()
    try:
        model = model_from_intervals(endpoints)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n == n
    assert retained < 48 * n, retained / n


def test_model_rejects_reversed_pair():
    with pytest.raises(InvariantError):
        model_from_intervals([(3, 1)])
    with pytest.raises(InvariantError) as info:
        model_from_intervals([(0, 1), (3, 2), (5, 4)])
    assert str(info.value) == "malformed endpoint pair for vertex 1: (3, 2)"


def _key_encoded_model(endpoints):
    """(t, lefts, rights) by the earlier sweep, whose events were plain ints coord*n + vertex."""
    n = len(endpoints)
    by_left = sorted(l * n + v for v, (l, _) in enumerate(endpoints))
    lefts = [0] * n
    rights = [0] * n
    t = i = 0
    for x in sorted(r * n + v for v, (_, r) in enumerate(endpoints)):
        r = x // n
        bound = (r + 1) * n
        if i < n and by_left[i] < bound:
            t += 1
            while i < n and by_left[i] < bound:
                lefts[by_left[i] % n] = t
                i += 1
        rights[x - r * n] = t
    return t, lefts, rights


def _drawn_endpoints(rng):
    """Up to 14 intervals around a random origin, negative coordinates included; each
    after the first may repeat, share an end with or nest inside an earlier one."""
    origin = rng.randint(-12, 6)
    endpoints = []
    for _ in range(rng.randint(0, 14)):
        how = rng.randrange(5) if endpoints else 4
        l, r = rng.choice(endpoints) if endpoints else (0, 0)
        if how == 0:
            pass                                        # a duplicate
        elif how == 1:
            l, r = r, r + rng.randint(0, 4)             # starts where an earlier one ends
        elif how == 2:
            l, r = l - rng.randint(0, 4), l             # ends where an earlier one starts
        elif how == 3:
            l = rng.randint(l, r)                       # nested
            r = rng.randint(l, r)
        else:
            l = origin + rng.randint(0, 12)
            r = l + rng.randint(0, 6)
        endpoints.append((l, r))
    return endpoints


def test_model_build_matches_the_key_encoded_sweep():
    rng = random.Random(2718)
    shapes = set()
    for _ in range(2500):
        endpoints = _drawn_endpoints(rng)
        model = model_from_intervals(endpoints)
        assert (model.t, model.lefts, model.rights) == _key_encoded_model(endpoints), endpoints
        shapes.add((min(endpoints, default=(0, 0))[0] < 0, len(set(endpoints)) < len(endpoints)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def _check_model_invariants(endpoints, model):
    n = model.n
    raw_edges = {(u, v) for u, v in combinations(range(n), 2)
                 if endpoints[u][0] <= endpoints[v][1] and endpoints[v][0] <= endpoints[u][1]}
    # adjacency by runs, and by a split model of the same graph when it is split,
    # == adjacency by raw intervals, all pairs
    split = split_partition(Graph(n, raw_edges))
    for rep in (model,) if split is None else (model, split):
        for u, v in combinations(range(n), 2):
            assert rep.has_edge(u, v) == ((u, v) in raw_edges)
    # each clique read off the runs is a maximal clique of the raw interval graph
    nbrs = [{u for u in range(n) if (min(u, v), max(u, v)) in raw_edges} for v in range(n)]
    sets = [set(cl) for cl in _cliques(model)]
    for members in sets:
        assert all((u, v) in raw_edges for u, v in combinations(sorted(members), 2))
        assert not any(members <= nbrs[v] for v in range(n) if v not in members)
    # no clique contains another
    for a, b in combinations(range(len(sets)), 2):
        assert not sets[a] <= sets[b] and not sets[b] <= sets[a]
    # total clique size bound
    m = sum(1 for u in range(n) for v in range(u + 1, n) if model.has_edge(u, v))
    assert sum(len(cl) for cl in sets) <= 2 * m + n


def test_model_invariants_random():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(0, 12)
        endpoints = random_endpoints(rng, n, coord_max=rng.randint(2, 12))
        _check_model_invariants(endpoints, model_from_intervals(endpoints))


def test_model_invariants_adversarial():
    cases = [
        [(1, 10), (2, 3), (4, 5), (6, 7), (8, 9)],   # nested runs
        [(1, 1), (1, 1), (1, 1)],                    # all equal
        [(i, i) for i in range(1, 8)],               # all isolated
        [(1, 3), (2, 4), (3, 5), (1, 5)],            # staircase plus cover
        [(-4, -1), (-2, 3), (0, 0), (3, 3)],         # negative coordinates
    ]
    for endpoints in cases:
        _check_model_invariants(endpoints, model_from_intervals(endpoints))


def _brute_force_clique_path(endpoints):
    """(t, spans) from the integer points: the distinct maximal point sets, in order."""
    if not endpoints:
        return 0, []
    points = [frozenset(v for v, (l, r) in enumerate(endpoints) if l <= x <= r)
              for x in range(min(l for l, _ in endpoints), max(r for _, r in endpoints) + 1)]
    cliques = []
    for members in points:
        if not any(members < other for other in points) and members not in cliques:
            cliques.append(members)
    spans = [(min(i for i, cl in enumerate(cliques, 1) if v in cl),
              max(i for i, cl in enumerate(cliques, 1) if v in cl))
             for v in range(len(endpoints))]
    return len(cliques), spans


def test_clique_path_matches_brute_force():
    rng = random.Random(2024)
    cases = [[]]
    for _ in range(400):
        n = rng.randint(1, 12)
        pairs = [sorted((rng.randint(-6, 6), rng.randint(-6, 6))) for _ in range(n)]
        if rng.random() < 0.3:  # duplicates and single points
            pairs += [pairs[0], (pairs[-1][0], pairs[-1][0])]
        cases.append([tuple(p) for p in pairs])
    for endpoints in cases:
        model = model_from_intervals(endpoints)
        runs = list(zip(model.lefts, model.rights))
        assert (model.t, runs) == _brute_force_clique_path(endpoints)


def test_greedy_set_is_colorable_and_maximal():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(0, 12)
        c = rng.randint(1, 3)
        reps = (model_from_intervals(random_endpoints(rng, n)),
                random_split_model(rng, n), random_graph(rng, n, p=0.5))
        for rep in reps:
            chosen = greedy_set(rep, c, rng)
            assert make_tracker(rep, chosen, c).colorable()
            for v in set(range(n)) - chosen:
                assert not make_tracker(rep, chosen | {v}, c).colorable()


def test_check_sets_returns_trackers_of_both_sets():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 10)
        c = rng.randint(1, 3)
        reps = (model_from_intervals(random_endpoints(rng, n)),
                random_split_model(rng, n), random_graph(rng, n, p=0.5))
        for rep in reps:
            start = greedy_set(rep, c, rng, target=rng.randint(0, n))
            target = greedy_set(rep, c, rng, target=rng.randint(0, n))
            trackers = check_sets(rep, c, start, target, min(len(start), len(target)))
            for tracker, members in zip(trackers, (start, target)):
                fresh = make_tracker(rep, members, c)
                others = [v for v in range(n) if v not in members]
                assert tracker.colorable() and fresh.colorable()
                assert [tracker.can_add(v) for v in others] == [fresh.can_add(v) for v in others]


def test_check_sets_names_a_vertex_just_out_of_range():
    g = Graph(4, [(0, 1)])
    check_sets(g, 1, {0, 3}, {3}, 0)
    for start, target, message in [({0, 4}, {2}, "S: vertex 4 out of range"),
                                   ({0}, {-1, 2}, "S2: vertex -1 out of range")]:
        with pytest.raises(InvariantError) as info:
            check_sets(g, 1, start, target, 0)
        assert str(info.value) == message


def test_neighbor_masks_are_built_in_linear_time():
    # the hub of a star with 200,000 leaves: a mask summed bit by bit copies a
    # growing int once per neighbour, quadratic in the degree
    n = 200_001
    star = Graph(n, ((0, v) for v in range(1, n)))
    began = time.perf_counter()
    check_sets(star, 2, {0, 1, 2}, {0, 1, 2}, 0)
    assert time.perf_counter() - began < 0.3
    assert star.neighbor_masks[0] == (1 << n) - 2 and star.neighbor_masks[1] == 1
    assert Graph(3).neighbor_masks[2] == 0   # an isolated vertex


def test_can_add_never_changes_the_set():
    g = complete_graph(3)
    tracker = make_tracker(g, {0, 1}, 2)
    assert not tracker.can_add(2)
    tracker.can_add(0)
    assert tracker.colorable() and not tracker.can_add(2)
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 10)
        c = rng.randint(1, 3)
        reps = (model_from_intervals(random_endpoints(rng, n)),
                random_split_model(rng, n), random_graph(rng, n, p=0.5))
        for rep in reps:
            # a maximal set: dropping any member would let some nonmember in
            members = greedy_set(rep, c, rng)
            tracker = make_tracker(rep, members, c)
            others = [v for v in range(n) if v not in members]
            answers = [tracker.can_add(v) for v in others]
            for v in rng.sample(range(n), n):
                tracker.can_add(v)
            assert tracker.colorable()
            assert [tracker.can_add(v) for v in others] == answers
            # the tracker owns its set: a walk of adds and removes keeps it in step
            reference = set(members)
            assert tracker.members == reference and tracker.members is not members
            for _ in range(2 * n):
                v = rng.randrange(n)
                if v in reference:
                    tracker.remove(v)
                    reference.remove(v)
                elif tracker.can_add(v):
                    tracker.add(v)
                    reference.add(v)
                assert tracker.members == reference
                if hasattr(tracker, "addable"):
                    among = rng.sample(range(n), rng.randint(0, n))
                    assert not reference & set(tracker.addable(among))
                    assert not reference & set(tracker.addable())


def test_exact_tracker_walk_matches_brute_force(monkeypatch):
    # the reference is the brute force, since is_colorable_exact shares the
    # tracker's backtracking; both ways of recoloring must come up
    calls = 0
    exact_classes = core._exact_classes

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return exact_classes(*args, **kwargs)

    monkeypatch.setattr(core, "_exact_classes", counted)
    rng = random.Random(41)
    adds_after_backtracking = adds_recolored_later = 0
    for _ in range(150):
        n = rng.randint(1, 12)
        c = rng.randint(1, 3)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.7))
        known = {}

        def fits(s):
            key = frozenset(s)
            if key not in known:
                known[key] = brute_force_colorable(g, s, c)
            return known[key]

        members = set()
        tracker = make_tracker(g, members, c)
        for _ in range(40):
            v = rng.randrange(n)
            asked = False
            if v in members:
                tracker.remove(v)
                members.remove(v)
            elif rng.random() < 0.6:
                before = calls
                ok = tracker.can_add(v)
                assert ok == fits(members | {v}), (g.adjacency, members, v, c)
                if ok:
                    adds_after_backtracking += calls > before
                    tracker.add(v)
                    members.add(v)
                    asked = True
            elif fits(members | {v}):
                tracker.add(v)
                members.add(v)
            before = calls
            assert tracker.colorable()
            if asked:
                # the coloring can_add kept, or had, has a class free for v
                assert calls == before
            else:
                adds_recolored_later += calls > before
    assert adds_after_backtracking and adds_recolored_later


def test_exact_tracker_keeps_the_guard():
    g = Graph(70)
    tracker = make_tracker(g, range(64), 1)
    assert tracker.colorable()
    with pytest.raises(ResourceLimitError, match="set size 65 exceeds 64"):
        tracker.can_add(64)
    with pytest.raises(ResourceLimitError, match="set size 65 exceeds 64"):
        make_tracker(g, range(65), 1).colorable()
    tracker.add(64)
    with pytest.raises(ResourceLimitError, match="set size 65 exceeds 64"):
        tracker.colorable()
    assert is_colorable_exact(g, range(66), 1, limit=70)
    # below the guard, or within the color budget, the tracker answers
    assert make_tracker(g, range(63), 1).can_add(63)
    assert make_tracker(g, range(69), 70).can_add(69)


def test_bfs_parents_goal_and_component():
    # 0 -> {1, 2} -> 3, with 4 hanging off 1 and 5 isolated
    graph = {0: [1, 2], 1: [0, 3, 4], 2: [0, 3], 3: [1, 2], 4: [1], 5: []}
    asked = []
    yielded = []

    def neighbours(node):
        asked.append(node)
        for nxt in graph[node]:
            yielded.append(nxt)
            yield nxt

    parent = bfs(0, neighbours, 3)
    assert parent == {0: None, 1: 0, 2: 0, 3: 1}
    assert asked == [0, 1] and yielded == [1, 2, 0, 3]
    assert bfs_path(parent, 3) == [0, 1, 3]
    asked.clear()
    assert bfs(2, neighbours, 2) == {2: None} and asked == []
    parent = bfs(0, neighbours)
    assert list(parent) == [0, 1, 2, 3, 4] and parent[3] == 1
    assert bfs_path(parent, 4) == [0, 1, 4]
    assert bfs(5, neighbours) == {5: None}
    assert bfs(0, neighbours, 5).keys() == {0, 1, 2, 3, 4}


def test_shortest_path_is_the_one_sided_bfs_path():
    # symmetric graphs with shuffled neighbour lists, the odd repeated entry, unreachable
    # goals and source == goal: the search from both ends returns bfs's path or None
    rng = random.Random(2929)
    unreachable = same = long = 0
    for _ in range(20_000):
        n = rng.randint(1, 30)
        p = rng.choice([0.1, 0.2, 0.35, 0.6]) * min(1, 8 / n)
        graph = {v: [] for v in range(n)}
        for u, v in combinations(range(n), 2):
            if rng.random() < p:
                graph[u] += [v] * rng.choice([1] * 19 + [2])
                graph[v].append(u)
        for nbrs in graph.values():
            rng.shuffle(nbrs)
        source, goal = rng.randrange(n), rng.randrange(n)
        parent = bfs(source, graph.__getitem__, goal)
        want = bfs_path(parent, goal) if goal in parent else None
        assert shortest_path(source, goal, graph.__getitem__) == want, (graph, source, goal)
        unreachable += want is None
        same += source == goal
        long += want is not None and len(want) > 6
    assert unreachable > 1000 and same > 1000 and long > 100


def test_shortest_path_meets_in_the_middle():
    # 2^16 tar states at c = 1 and a target 8 steps away: a one-sided search expands
    # 14,894 states, the search from both ends only the layers up to half way
    expanded = []
    space = oracle.StateSpace(Graph(16), 1, "tar", 0)

    def counted(mask):
        expanded.append(mask)
        return space.neighbours(mask)

    assert shortest_path(0, 0xFF, counted) == [(1 << v) - 1 for v in range(9)]
    assert len(expanded) == 1_398
