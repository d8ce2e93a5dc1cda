"""Ground-truth engine: BFS over the graph of all colorable sets.

Only meant for desk-size instances; every public entry point is guarded by a
vertex-count cap and a cap on the number of enumerated states, which is
optional for distances and defaults to ``DEFAULT_REPORT_MAX_STATES`` for the
connectivity report, whose diameters take one BFS per state.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .core import InvariantError, ResourceLimitError, adjacent_in, check_sets, colorable
from .instances import ReconSequence

DEFAULT_MAX_N = 20
DEFAULT_REPORT_MAX_STATES = 1024


@dataclass
class StateSpace:
    """All feasible sets under one rule, as sorted tuples, plus their one-step adjacency."""

    states: list
    index: dict
    adj: list
    rule: str


def enumerate_colorable_sets(g_or_model, c, min_size=0, exact_size=None, max_states=None):
    """All colorable vertex sets, by recursive extension with pruning.

    Colorable sets are closed under taking subsets, so pruning a vertex whose
    addition breaks colorability never loses a set.  A branch is also cut as
    soon as it can no longer reach the size floor, and never grows past the
    exact size, so a floor that filters out most sets prunes most of the
    search too.  Results come back as
    sorted tuples in lexicographic order.
    """
    n = g_or_model.n
    states = []
    cur = set()
    floor = min_size if exact_size is None else max(min_size, exact_size)

    def extend(v):
        if len(cur) + n - v < floor:
            return
        if v == n:
            states.append(tuple(sorted(cur)))
            if max_states is not None and len(states) > max_states:
                raise ResourceLimitError(
                    f"oracle guard: state count exceeds max_states={max_states}; "
                    "raise max_states (--max-states) to override")
            return
        if exact_size is None or len(cur) < exact_size:
            cur.add(v)
            if colorable(g_or_model, cur, c):
                extend(v + 1)
            cur.discard(v)
        extend(v + 1)

    extend(0)
    states.sort()
    return states


def build_state_space(g_or_model, c, k, rule, size=None,
                      max_n=DEFAULT_MAX_N, max_states=None):
    n = g_or_model.n
    if n > max_n:
        raise ResourceLimitError(f"oracle guard: n={n} exceeds {max_n}; raise max_n to override")
    if rule == "tar":
        states = enumerate_colorable_sets(g_or_model, c, min_size=k, max_states=max_states)
    elif rule in ("tj", "ts"):
        states = enumerate_colorable_sets(g_or_model, c, exact_size=size, max_states=max_states)
    else:
        raise InvariantError(f"unknown rule '{rule}'")
    index = {s: i for i, s in enumerate(states)}
    adj = [[] for _ in states]
    if rule == "tar":
        for i, s in enumerate(states):
            members = set(s)
            for v in range(n):
                if v in members:
                    continue
                j = index.get(tuple(sorted(s + (v,))))
                if j is not None:
                    adj[i].append(j)
                    adj[j].append(i)
    else:
        for i, s in enumerate(states):
            members = set(s)
            for u in s:
                rest = [x for x in s if x != u]
                for v in range(n):
                    if v in members:
                        continue
                    if rule == "ts" and not adjacent_in(g_or_model, u, v):
                        continue
                    j = index.get(tuple(sorted(rest + [v])))
                    if j is not None and j > i:
                        adj[i].append(j)
                        adj[j].append(i)
    for lst in adj:
        lst.sort()
    return StateSpace(states, index, adj, rule)


def _steps_between(prev, nxt, rule):
    if rule == "tar":
        if len(nxt) > len(prev):
            (v,) = set(nxt) - set(prev)
            return ("+", v)
        (v,) = set(prev) - set(nxt)
        return ("-", v)
    (u,) = set(prev) - set(nxt)
    (v,) = set(nxt) - set(prev)
    return (">", u, v)


def oracle_distance(g_or_model, c, start, target, k=0, rule="tar",
                    max_n=DEFAULT_MAX_N, max_states=None, want_sequence=False):
    """Exact shortest distance by BFS from the start side; optionally a sequence.

    Returns ``(distance, sequence_or_None)``; distance is ``math.inf`` when
    the two sets lie in different components.
    """
    check_sets(g_or_model, c, start, target, k, same_size=rule != "tar")
    start_t = tuple(sorted(start))
    target_t = tuple(sorted(target))
    space = build_state_space(g_or_model, c, k, rule, size=len(start_t),
                              max_n=max_n, max_states=max_states)
    src = space.index[start_t]
    dst = space.index[target_t]
    parent = {src: None}
    queue = deque([src])
    dist = {src: 0}
    while queue:
        i = queue.popleft()
        if i == dst:
            break
        for j in space.adj[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                parent[j] = i
                queue.append(j)
    if dst not in dist:
        return math.inf, None
    if not want_sequence:
        return dist[dst], None
    path = []
    node = dst
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    steps = [_steps_between(space.states[path[i]], space.states[path[i + 1]], rule)
             for i in range(len(path) - 1)]
    return dist[dst], ReconSequence(set(start_t), steps)


@dataclass
class ConnectivityReport:
    components: int
    sizes: list
    diameters: list


def oracle_connectivity_report(g_or_model, c, k, rule="tar",
                               max_n=DEFAULT_MAX_N, max_states=DEFAULT_REPORT_MAX_STATES):
    """Component count and per-component diameter of the state space.

    Under the swap rules the fixed set size is k.  Components are listed in
    order of their lexicographically smallest state.  The diameters cost one
    BFS per state, so the state count is capped by default; ``max_states=None``
    lifts the cap.
    """
    space = build_state_space(g_or_model, c, k, rule, size=k,
                              max_n=max_n, max_states=max_states)
    n_states = len(space.states)
    seen = [False] * n_states
    sizes = []
    diameters = []
    for root in range(n_states):
        if seen[root]:
            continue
        comp = []
        queue = deque([root])
        seen[root] = True
        while queue:
            i = queue.popleft()
            comp.append(i)
            for j in space.adj[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        diameter = 0
        for src in comp:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                i = queue.popleft()
                for j in space.adj[i]:
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        queue.append(j)
            diameter = max(diameter, max(dist.values()))
        sizes.append(len(comp))
        diameters.append(diameter)
    return ConnectivityReport(len(sizes), sizes, diameters)
