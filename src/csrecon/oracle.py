"""Ground-truth engine: BFS over the graph of all colorable sets.

Only meant for desk-size instances; every public entry point is guarded by a
vertex-count cap and a cap on the number of enumerated states, which is
optional for distances and defaults to ``DEFAULT_REPORT_MAX_STATES`` for the
connectivity report, whose diameters take one BFS per state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    InvariantError, ResourceLimitError, adjacent_in, bfs, bfs_path, check_sets, make_tracker,
)
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

    One feasibility tracker follows the walk, which adds vertices in
    ascending order.  Colorable sets are closed under taking subsets, so
    pruning a vertex whose addition breaks colorability never loses a set.
    A branch is also cut as soon as it can no longer reach the size floor,
    and never grows past the exact size, so a floor that filters out most
    sets prunes most of the search too.  Results come back as sorted tuples
    in lexicographic order.
    """
    n = g_or_model.n
    states = []
    cur = []
    tracker = make_tracker(g_or_model, (), c)
    floor = min_size if exact_size is None else max(min_size, exact_size)

    def extend(v):
        if len(cur) + n - v < floor:
            return
        if v == n:
            states.append(tuple(cur))
            if max_states is not None and len(states) > max_states:
                raise ResourceLimitError(
                    f"oracle guard: state count exceeds max_states={max_states}; "
                    "raise max_states (--max-states) to override")
            return
        if (exact_size is None or len(cur) < exact_size) and tracker.can_add(v):
            tracker.add(v)
            cur.append(v)
            extend(v + 1)
            cur.pop()
            tracker.remove(v)
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
    at = {sum(1 << v for v in s): i for i, s in enumerate(states)}
    adj = [[] for _ in states]
    # one step removes a member u (none under tar, written u = -1) and adds a
    # nonmember v > u, so each edge is generated once, from one of its ends
    for mask, i in at.items():
        outs = [(-1, mask)] if rule == "tar" else [(u, mask ^ 1 << u) for u in states[i]]
        for u, rest in outs:
            for v in range(u + 1, n):
                if mask >> v & 1 or rule == "ts" and not adjacent_in(g_or_model, u, v):
                    continue
                j = at.get(rest | 1 << v)
                if j is not None:
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
    parent = bfs(src, space.adj.__getitem__, dst)
    if dst not in parent:
        return math.inf, None
    path = bfs_path(parent, dst)
    if not want_sequence:
        return len(path) - 1, None
    steps = [_steps_between(space.states[path[i]], space.states[path[i + 1]], rule)
             for i in range(len(path) - 1)]
    return len(path) - 1, ReconSequence(set(start_t), steps)


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
    neighbours = space.adj.__getitem__
    seen = set()
    sizes = []
    diameters = []
    for root in range(len(space.states)):
        if root in seen:
            continue
        comp = bfs(root, neighbours)
        seen.update(comp)
        # a state's eccentricity is the depth of the last state its search discovers
        diameter = 0
        for src in comp:
            parent = bfs(src, neighbours)
            diameter = max(diameter, len(bfs_path(parent, next(reversed(parent)))) - 1)
        sizes.append(len(comp))
        diameters.append(diameter)
    return ConnectivityReport(len(sizes), sizes, diameters)
