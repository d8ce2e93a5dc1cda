"""The brute-force BFS engine: distances, reports, and structural checks."""
from __future__ import annotations

import inspect
import math
import random
import sys
from itertools import combinations

import pytest

from csrecon import (
    Graph,
    Instance,
    InvariantError,
    ResourceLimitError,
    enumerate_colorable_sets,
    model_from_intervals,
    oracle_connectivity_report,
    oracle_distance,
    verify_sequence,
)
from csrecon.generators import random_endpoints, random_graph, random_split_model
from csrecon import core, oracle
from csrecon.oracle import build_state_space

from conftest import (
    brute_force_colorable, complete_graph, graph_from_model, graph_from_split, path_graph,
)


def _members(masks):
    """Each bitmask (bit v for member v) as the sorted tuple of its members."""
    return [tuple(v for v in range(mask.bit_length()) if mask >> v & 1) for mask in masks]


def test_distance_examples(e1_model, e2_model):
    dist, _ = oracle_distance(e2_model, 1, {0}, {1}, k=1, rule="tar")
    assert dist == math.inf
    dist, _ = oracle_distance(e1_model, 1, {0}, {2}, k=1, rule="tar")
    assert dist == 2
    dist, _ = oracle_distance(e1_model, 1, {1}, {1}, k=1, rule="tar")
    assert dist == 0


def test_sequences_come_back_valid(e4_model):
    dist, seq = oracle_distance(e4_model, 1, {1}, {0, 2}, k=1, rule="tar")
    assert dist == 5 and len(seq.steps) == 5
    inst = Instance(e4_model, "tar", 1, 1, {1}, {0, 2})
    assert verify_sequence(inst, seq).ok

    dist, seq = oracle_distance(path_graph(4), 1, {0, 2}, {1, 3}, rule="tj")
    assert dist == len(seq.steps)
    inst = Instance(path_graph(4), "tj", 1, 0, {0, 2}, {1, 3})
    assert verify_sequence(inst, seq).ok


def test_ts_respects_edges():
    g = path_graph(3)
    # sliding 0>2 skips the middle: under ts the only way from {0} to {2} is via 1,
    # which is blocked at c=1 size 1 by adjacency... swaps 0>1 then 1>2 work
    dist, seq = oracle_distance(g, 1, {0}, {2}, rule="ts")
    assert dist == 2
    inst = Instance(g, "ts", 1, 0, {0}, {2})
    assert verify_sequence(inst, seq).ok


def test_vertex_guard():
    g = complete_graph(25)
    with pytest.raises(ResourceLimitError):
        oracle_distance(g, 1, set(), set(), k=0, rule="tar")
    dist, _ = oracle_distance(g, 1, {0}, {24}, k=0, rule="tar", max_n=25)
    assert dist == 2


def test_state_cap():
    # the target lies five additions away, so the search discovers more than five states
    g = Graph(10)
    with pytest.raises(ResourceLimitError, match="max_states=5;"):
        oracle_distance(g, 1, set(), set(range(5)), k=0, rule="tar", max_states=5)


def test_pruned_enumeration_equals_filtered_full_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, p=rng.random())
        c = rng.randint(1, 3)
        full = _members(enumerate_colorable_sets(g, c))
        for size in range(n + 2):
            assert _members(enumerate_colorable_sets(g, c, min_size=size)) == \
                [s for s in full if len(s) >= size]
            assert _members(enumerate_colorable_sets(g, c, exact_size=size)) == \
                [s for s in full if len(s) == size]


def test_enumeration_equals_filtered_combinations():
    # an independent reference: every subset in lexicographic order, kept when
    # brute force colors it; this also pins the order the walk promises
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(0, 8)
        g = random_graph(rng, n, p=rng.random())
        split = random_split_model(rng, n)
        model = model_from_intervals(random_endpoints(rng, n))
        for rep, plain in ((g, g), (split, graph_from_split(split)),
                           (model, graph_from_model(model))):
            subsets = sorted(s for size in range(n + 1) for s in combinations(range(n), size))
            for c in (1, 2, 3):
                want = [s for s in subsets if brute_force_colorable(plain, s, c)]
                for size in range(n + 2):
                    assert _members(enumerate_colorable_sets(rep, c, min_size=size)) == \
                        [s for s in want if len(s) >= size], (rep, c, size)
                    assert _members(enumerate_colorable_sets(rep, c, exact_size=size)) == \
                        [s for s in want if len(s) == size], (rep, c, size)


def test_oracle_sequences_replay():
    rng = random.Random(271)
    reached = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        reps = (random_graph(rng, n, p=rng.random()), random_split_model(rng, n),
                model_from_intervals(random_endpoints(rng, n)))
        for rep in reps:
            for rule in ("tar", "tj", "ts"):
                c = rng.choice([1, 2])
                size = None if rule == "tar" else rng.randint(0, n)
                sets = _members(enumerate_colorable_sets(rep, c, exact_size=size))
                if not sets:
                    continue
                start, target = set(rng.choice(sets)), set(rng.choice(sets))
                k = rng.randint(0, min(len(start), len(target))) if rule == "tar" else 0
                dist, seq = oracle_distance(rep, c, start, target, k=k, rule=rule)
                if dist == math.inf:
                    assert seq is None
                    continue
                assert len(seq.steps) == dist
                assert verify_sequence(Instance(rep, rule, c, k, start, target), seq).ok, \
                    (rep, rule, c, k, start, target)
                reached += dist > 0
    # enough nonempty sequences that every step kind gets decoded many times
    assert reached >= 200


def _count_can_add(monkeypatch):
    """A one-item list counting the ``can_add`` calls of every tracker the oracle makes."""
    calls = [0]
    make_tracker = oracle.make_tracker

    def counting(*args, **kwargs):
        tracker = make_tracker(*args, **kwargs)
        can_add = tracker.can_add

        def counted(v):
            calls[0] += 1
            return can_add(v)

        tracker.can_add = counted
        return tracker

    monkeypatch.setattr(oracle, "make_tracker", counting)
    return calls


def test_size_floor_bounds_enumeration_work(monkeypatch):
    # edgeless n=16 at tar k=16 keeps one state; the walk must not visit 2^16 sets
    calls = _count_can_add(monkeypatch)
    space = build_state_space(Graph(16), 1, 16, "tar")
    assert space.states == [2 ** 16 - 1]
    assert 0 < calls[0] <= 16 * 16


def test_rejected_vertex_is_not_tested_again_below(monkeypatch):
    # star K_{1,11} at c=1: the centre fits only the empty set, so once a leaf
    # is in, no set further down the walk may test the centre again
    calls = _count_can_add(monkeypatch)
    n = 12
    star = Graph(n, [(v, n - 1) for v in range(n - 1)])
    states = enumerate_colorable_sets(star, 1)
    assert len(states) == 2 ** (n - 1) + 1
    assert calls[0] <= len(states) + n


def _count_expansions(monkeypatch):
    """The list of masks ``StateSpace.neighbours`` is asked about, in order."""
    expanded = []
    neighbours = oracle.StateSpace.neighbours

    def counted(space, mask, bound=None):
        expanded.append(mask)
        return neighbours(space, mask, bound)

    monkeypatch.setattr(oracle.StateSpace, "neighbours", counted)
    return expanded


def test_distance_search_stops_at_the_target(monkeypatch):
    # the floor k = 1 exceeds |S & S2| = 0, and S2 = {1} sits at the floor, so it is
    # expanded first (it has a step) and its 15 additions are tested; the pass then expands
    # the source and {0, 1}, whose one step within the bound each is already known, and
    # none of the other 2^16 sets is visited
    expanded = _count_expansions(monkeypatch)
    calls = _count_can_add(monkeypatch)
    dist, seq = oracle_distance(Graph(16), 1, {0}, {1}, k=1, rule="tar")
    assert dist == 2 and seq.steps == [("+", 1), ("-", 0)]
    assert expanded == [0b10, 0b1, 0b11] and calls[0] == 15


def test_tar_distance_within_the_floor_is_walked(monkeypatch):
    # |S & S2| >= k: every step nearer S2 lies on a shortest path, so the bounded pass never
    # backtracks and expands only the sets on its path, where the search from both ends
    # expands 1,398 (test_core); the bound drops every step away from S2 before its test
    expanded = _count_expansions(monkeypatch)
    calls = _count_can_add(monkeypatch)
    dist, seq = oracle_distance(Graph(16), 1, {0}, {0, 1}, k=0, rule="tar")
    assert dist == 1 and seq.steps == [("+", 1)]
    assert expanded == [0b1] and calls[0] == 0    # its one step within the bound is S2
    del expanded[:]
    dist, seq = oracle_distance(Graph(16), 1, set(), set(range(8)), k=0)
    assert dist == 8 and seq.steps == [("+", v) for v in range(8)]
    assert expanded == [(1 << v) - 1 for v in range(8)]
    dist, seq = oracle_distance(Graph(16), 1, {0, 1, 2, 3}, {2, 3, 4, 5}, k=2)
    assert dist == 4 and seq.steps == [("-", 0), ("-", 1), ("+", 4), ("+", 5)]


def test_tar_target_at_the_floor_with_no_step_is_cut_off(monkeypatch):
    # S2 sits at the floor (|S2| = k = 3) and is maximal at c = 2, so it has no step; S's
    # component is large, and only the ends may be expanded to find that S2 is cut off
    body = [(4, 24), (19, 24), (3, 17), (18, 21), (12, 20), (3, 17), (5, 19), (5, 11),
            (3, 11), (15, 16), (11, 12), (8, 20)]
    expanded = _count_expansions(monkeypatch)
    dist, seq = oracle_distance(model_from_intervals(body), 2, {3, 4, 7, 8, 9}, {1, 5, 6}, k=3)
    assert dist == math.inf and seq is None
    assert len(expanded) <= 2 and set(expanded) <= {0b1110011000, 0b1100010}


def test_bounded_pass_does_not_recurse():
    # 150 disjoint intervals at c = 1: from the empty set to all of them takes 150 additions,
    # more than the 50 frames the lowered recursion limit leaves
    n = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        dist, seq = oracle_distance(model_from_intervals([(2 * v, 2 * v) for v in range(n)]), 1,
                                    set(), set(range(n)), max_n=n)
    finally:
        sys.setrecursionlimit(limit)
    assert dist == n and seq.steps == [("+", v) for v in range(n)]


def test_distance_input_errors():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InvariantError, match="S: vertex 5 out of range"):
        oracle_distance(g, 1, {0, 5}, {1})
    with pytest.raises(InvariantError, match="color budget c must be at least 1"):
        oracle_distance(g, 0, {0}, {1})
    with pytest.raises(InvariantError, match="threshold k must be nonnegative"):
        oracle_distance(g, 1, {0}, {1}, k=-1)


def test_report_state_cap_by_default():
    # one BFS per state for the diameters: 2^11 states are refused unless asked for
    with pytest.raises(ResourceLimitError, match="max_states=1024"):
        oracle_connectivity_report(Graph(11), 1, 0, rule="tar")
    report = oracle_connectivity_report(Graph(10), 1, 0, rule="tar")
    assert report.sizes == [1024] and report.diameters == [10]


def test_connectivity_report_examples(e2_model):
    report = oracle_connectivity_report(e2_model, 1, 1, rule="tar")
    assert report.components == 2 and report.sizes == [1, 1]
    report = oracle_connectivity_report(Graph(2), 1, 0, rule="tar")
    assert report.components == 1 and report.sizes == [4] and report.diameters == [2]
    report = oracle_connectivity_report(Graph(0), 1, 0, rule="tar")
    assert report.components == 1 and report.sizes == [1] and report.diameters == [0]


def _brute_force_report(plain, c, k, rule):
    """Component count, sizes and diameters by BFS over every colorable subset of range(n)
    of an allowed size, the components in order of their lexicographically smallest set."""
    n = plain.n
    subsets = sorted(s for size in range(n + 1) for s in combinations(range(n), size))
    sets = [frozenset(s) for s in subsets if (len(s) >= k if rule == "tar" else len(s) == k)
            and brute_force_colorable(plain, s, c)]

    def step(a, b):
        diff = a ^ b
        if rule == "tar":
            return len(diff) == 1
        return len(diff) == 2 and (rule == "tj" or plain.has_edge(*diff))

    adj = {a: [b for b in sets if step(a, b)] for a in sets}

    def depths(source):
        depth, todo = {source: 0}, [source]
        for a in todo:
            for b in adj[a]:
                if b not in depth:
                    depth[b] = depth[a] + 1
                    todo.append(b)
        return depth

    seen, sizes, diameters = set(), [], []
    for root in sets:
        if root not in seen:
            comp = depths(root)
            seen.update(comp)
            sizes.append(len(comp))
            diameters.append(max(max(depths(a).values()) for a in comp))
    return len(sizes), sizes, diameters


def test_connectivity_report_matches_brute_force():
    rng = random.Random(2929)
    split_up = deep = 0
    for _ in range(60):
        n = rng.randint(0, 7)
        g, split = random_graph(rng, n, p=rng.random()), random_split_model(rng, n)
        model = model_from_intervals(random_endpoints(rng, n))
        for rep, plain in ((g, g), (split, graph_from_split(split)),
                           (model, graph_from_model(model))):
            for rule in ("tar", "tj", "ts"):
                c, k = rng.randint(1, 3), rng.randint(0, n)
                report = oracle_connectivity_report(rep, c, k, rule=rule)
                got = report.components, report.sizes, report.diameters
                assert got == _brute_force_report(plain, c, k, rule), (rep, rule, c, k)
                split_up += report.components > 1
                deep += max(report.diameters, default=0) >= 3
    # enough reports with several components, and with long shortest paths, to check both
    assert split_up >= 30 and deep >= 60


def test_adjacency_symmetric_everywhere():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, p=rng.random())
        rule = rng.choice(["tar", "tj", "ts"])
        size = rng.randint(0, n)
        c, k = rng.randint(1, 3), rng.randint(0, n)
        space = build_state_space(g, c, k if rule == "tar" else size, rule)
        for i, neighbors in enumerate(space.adj):
            for j in neighbors:
                assert i in space.adj[j]


def test_adjacency_equals_brute_force_steps():
    # tar: one vertex added or removed; tj: one swap; ts: one swap along an edge
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(0, 8)
        c = rng.randint(1, 3)
        reps = (random_graph(rng, n, p=rng.random()), random_split_model(rng, n),
                model_from_intervals(random_endpoints(rng, n)))
        for rep in reps:
            for rule in ("tar", "tj", "ts"):
                k = rng.randint(0, n)
                space = build_state_space(rep, c, k, rule)
                sets = [{v for v in range(n) if mask >> v & 1} for mask in space.states]
                want = []
                for a in sets:
                    row = []
                    for j, b in enumerate(sets):
                        diff = a ^ b
                        if rule == "tar":
                            step = len(diff) == 1
                        else:
                            step = len(diff) == 2 and (rule == "tj" or rep.has_edge(*diff))
                        if step:
                            row.append(j)
                    want.append(row)
                assert space.adj == want, (rule, c, k, rep)


def test_tar_distance_monotone_in_k():
    rng = random.Random(741)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=0.4)
        c = rng.choice([1, 2])
        sets = _members(enumerate_colorable_sets(g, c))
        if len(sets) < 2:
            continue
        start = set(rng.choice(sets))
        target = set(rng.choice(sets))
        prev = -1
        for k in range(0, min(len(start), len(target)) + 1):
            dist, _ = oracle_distance(g, c, start, target, k=k, rule="tar")
            if prev != -1:
                assert dist >= prev or dist == math.inf
            prev = dist if dist != math.inf else math.inf


def test_tar_tj_relation_on_plain_graphs():
    rng = random.Random(853)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=rng.random())
        c = rng.choice([1, 2])
        size = rng.randint(1, max(1, n))
        sets = _members(enumerate_colorable_sets(g, c, exact_size=size))
        if len(sets) < 2:
            continue
        start = set(rng.choice(sets))
        target = set(rng.choice(sets))
        tar, _ = oracle_distance(g, c, start, target, k=size - 1, rule="tar")
        tj, _ = oracle_distance(g, c, start, target, rule="tj")
        assert (tar == math.inf) == (tj == math.inf)
        if tar != math.inf:
            assert tar == 2 * tj
        checked += 1


def test_enumeration_backtracks_only_when_no_color_is_free(monkeypatch):
    # edgeless: every vertex finds a free class, so the only full coloring is
    # that of the empty start set
    calls = 0
    exact_classes = core._exact_classes

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return exact_classes(*args, **kwargs)

    monkeypatch.setattr(core, "_exact_classes", counted)
    assert len(enumerate_colorable_sets(Graph(12), 2)) == 2 ** 12
    assert calls <= 1


def test_state_cap_fires_on_the_first_state_past_it():
    # the cap fires on the state that passes it, even the walk's very last one:
    # under tar at floor <= 1 that is {n-1}, the last set in lexicographic order,
    # so max_states = N - 1 overflows only as the walk ends
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 8)
        rep = rng.choice([random_graph(rng, n, p=rng.random()), random_split_model(rng, n),
                          model_from_intervals(random_endpoints(rng, n))])
        c = rng.randint(1, 3)
        for min_size, exact_size in ((0, None), (1, None), (2, None), (0, 1), (0, 2)):
            full = enumerate_colorable_sets(rep, c, min_size, exact_size)
            if not full:
                continue
            if exact_size is None and min_size <= 1:
                assert full[-1] == 1 << n - 1
            with pytest.raises(ResourceLimitError, match=f"max_states={len(full) - 1};"):
                enumerate_colorable_sets(rep, c, min_size, exact_size, max_states=len(full) - 1)
            assert enumerate_colorable_sets(rep, c, min_size, exact_size,
                                            max_states=len(full)) == full


def test_one_color_rejects_without_recoloring(monkeypatch):
    # at c = 1 the coloring is unique: a vertex that sees a member is refused
    # without running _exact_classes
    calls = 0
    exact_classes = core._exact_classes

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return exact_classes(*args, **kwargs)

    monkeypatch.setattr(core, "_exact_classes", counted)
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, p=rng.random())
        calls = 0
        enumerate_colorable_sets(g, 1)
        assert calls <= 1   # the empty start set's coloring


def test_distance_and_report_enumerate_through_the_public_walker(monkeypatch):
    # a traced run wraps oracle.enumerate_colorable_sets: the report must reach the
    # walk through that name, once, and a distance, which enumerates nothing, not at all
    calls = []
    walk = oracle.enumerate_colorable_sets

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_colorable_sets", counted)
    dist, _ = oracle_distance(path_graph(4), 1, {0, 2}, {1, 3}, rule="tj")
    assert dist == 2 and len(calls) == 0
    report = oracle_connectivity_report(Graph(3), 1, 0, rule="tar")
    assert report.sizes == [8] and len(calls) == 1


def _reference_distance(rep, c, start, target, k, rule):
    """Distance and steps by a one-sided BFS over the enumerated states, whose steps are
    found by looking up each state XOR every one-step move, in move order."""
    n = rep.n
    size = k if rule == "tar" else len(start)
    space = build_state_space(rep, c, size, rule)
    if rule == "tar":
        moves = [1 << v for v in range(n)]
    else:
        moves = [1 << u | 1 << v for u, v in combinations(range(n), 2)
                 if rule == "tj" or rep.has_edge(u, v)]
    index = space.index
    adj = [[index[mask ^ move] for move in moves if mask ^ move in index]
           for mask in space.states]
    src, dst = (index[sum(1 << v for v in s)] for s in (start, target))
    parent = core.bfs(src, adj.__getitem__, dst)
    if dst not in parent:
        return math.inf, None
    steps = []
    path = [space.states[i] for i in core.bfs_path(parent, dst)]
    for prev, nxt in zip(path, path[1:]):
        gone = [v for v in range(n) if prev >> v & 1 and not nxt >> v & 1]
        new = [v for v in range(n) if nxt >> v & 1 and not prev >> v & 1]
        if rule == "tar":
            steps.append(("+", *new) if new else ("-", *gone))
        else:
            steps.append((">", *gone, *new))
    return len(path) - 1, steps


def _random_cases(rng, count):
    """Seeded (rep, c, start, target, k, rule) cases with n <= 9 on all three representations."""
    cases = []
    while len(cases) < count:
        n = rng.randint(0, 9)
        rep = rng.choice((random_graph(rng, n, p=rng.random()), random_split_model(rng, n),
                          model_from_intervals(random_endpoints(rng, n))))
        c, rule = rng.randint(1, 3), rng.choice(("tar", "tj", "ts"))
        k = rng.randint(0, n)
        sets = _members(enumerate_colorable_sets(rep, c, *((k, None) if rule == "tar"
                                                           else (0, k))))
        if sets:
            start, target = rng.choice(sets), rng.choice(sets)
            cases.append((rep, c, set(start), set(target), k if rule == "tar" else 0, rule))
    return cases


def test_distance_matches_a_search_over_the_enumerated_states():
    # both the search and the walk under tar with |S & S2| >= k must come up, far apart
    rng = random.Random(3030)
    far = walked = unreachable = 0
    for rep, c, start, target, k, rule in _random_cases(rng, 1000):
        dist, seq = oracle_distance(rep, c, start, target, k=k, rule=rule)
        want_dist, want_steps = _reference_distance(rep, c, start, target, k, rule)
        assert dist == want_dist, (rep, c, start, target, k, rule)
        assert (seq.steps if seq else None) == want_steps, (rep, c, start, target, k, rule)
        far += 3 <= dist < math.inf
        walked += 3 <= dist and rule == "tar" and len(start & target) >= k
        unreachable += dist == math.inf
    assert far >= 70 and walked >= 25 and unreachable >= 40


def test_state_cap_counts_the_states_the_search_discovers(monkeypatch):
    # the discovered states are S, S2 and every step the distance tested and found feasible
    rng = random.Random(3131)
    remember = oracle.StateSpace.remember
    for rep, c, start, target, k, rule in _random_cases(rng, 60):
        seen = set()

        def counted(space, mask):
            seen.add(mask)
            return remember(space, mask)

        monkeypatch.setattr(oracle.StateSpace, "remember", counted)
        want = oracle_distance(rep, c, start, target, k=k, rule=rule)
        monkeypatch.undo()
        cap = len(seen)
        got = oracle_distance(rep, c, start, target, k=k, rule=rule, max_states=cap)
        assert got[0] == want[0]
        with pytest.raises(ResourceLimitError, match=f"max_states={cap - 1};"):
            oracle_distance(rep, c, start, target, k=k, rule=rule, max_states=cap - 1)
