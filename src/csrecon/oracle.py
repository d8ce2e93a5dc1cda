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
    """All feasible sets under one rule, plus their one-step adjacency.

    States are int bitmasks (bit v for member v) in lexicographic order of
    their sorted members; ``index`` maps a mask to its position.
    """

    states: list
    index: dict
    adj: list


def _colorable_masks(g_or_model, c, min_size, exact_size, max_states):
    """The colorable sets that ``enumerate_colorable_sets`` returns, as bitmasks in its order."""
    n = g_or_model.n
    masks = []
    tracker = make_tracker(g_or_model, (), c)
    floor = min_size if exact_size is None else max(min_size, exact_size)

    def grow(mask, size, first):
        if size >= floor:
            masks.append(mask)
            if max_states is not None and len(masks) > max_states:
                raise ResourceLimitError(
                    f"oracle guard: state count exceeds max_states={max_states}; "
                    "raise max_states (--max-states) to override")
        if size == exact_size:
            return
        # adding v leaves n - v - 1 vertices to grow by, which must reach the floor
        for v in range(first, min(n, n + size + 1 - floor)):
            if tracker.can_add(v):
                tracker.add(v)
                grow(mask | 1 << v, size + 1, v + 1)
                tracker.remove(v)

    grow(0, 0, 0)
    return masks


def enumerate_colorable_sets(g_or_model, c, min_size=0, exact_size=None, max_states=None):
    """All colorable vertex sets, as sorted tuples in lexicographic order.

    One feasibility tracker follows a walk that adds vertices in ascending
    order and records each set before its extensions, which is already
    lexicographic order.  Colorable sets are closed under taking subsets, so
    pruning a vertex whose addition breaks colorability never loses a set.
    A branch is also cut once it can no longer reach the size floor, and never
    grows past the exact size, so a high floor prunes most of the search too.
    """
    return [tuple(v for v in range(g_or_model.n) if mask >> v & 1)
            for mask in _colorable_masks(g_or_model, c, min_size, exact_size, max_states)]


def build_state_space(g_or_model, c, k, rule, size=None,
                      max_n=DEFAULT_MAX_N, max_states=None):
    n = g_or_model.n
    if n > max_n:
        raise ResourceLimitError(f"oracle guard: n={n} exceeds {max_n}; raise max_n to override")
    tar = rule == "tar"
    if not tar and rule not in ("tj", "ts"):
        raise InvariantError(f"unknown rule '{rule}'")
    states = _colorable_masks(g_or_model, c, k if tar else 0, None if tar else size, max_states)
    index = {mask: i for i, mask in enumerate(states)}
    adj = [[] for _ in states]
    # one step removes a member u (none under tar, written u = -1) and adds a
    # nonmember v > u, so each edge is generated once, from one of its ends
    for i, mask in enumerate(states):
        outs = [(-1, mask)] if tar else [(u, mask ^ 1 << u) for u in range(n) if mask >> u & 1]
        for u, rest in outs:
            for v in range(u + 1, n):
                if mask >> v & 1 or rule == "ts" and not adjacent_in(g_or_model, u, v):
                    continue
                j = index.get(rest | 1 << v)
                if j is not None:
                    adj[i].append(j)
                    adj[j].append(i)
    return StateSpace(states, index, [sorted(lst) for lst in adj])


def _steps_between(prev, nxt, rule):
    gone, new = (prev & ~nxt).bit_length() - 1, (nxt & ~prev).bit_length() - 1
    if rule == "tar":
        return ("+", new) if nxt > prev else ("-", gone)
    return (">", gone, new)


def oracle_distance(g_or_model, c, start, target, k=0, rule="tar",
                    max_n=DEFAULT_MAX_N, max_states=None, want_sequence=False):
    """Exact shortest distance by BFS from the start side; optionally a sequence.

    Returns ``(distance, sequence_or_None)``; distance is ``math.inf`` when
    the two sets lie in different components.
    """
    check_sets(g_or_model, c, start, target, k, same_size=rule != "tar")
    space = build_state_space(g_or_model, c, k, rule, size=len(start),
                              max_n=max_n, max_states=max_states)
    src = space.index[sum(1 << v for v in start)]
    dst = space.index[sum(1 << v for v in target)]
    parent = bfs(src, space.adj.__getitem__, dst)
    if dst not in parent:
        return math.inf, None
    path = bfs_path(parent, dst)
    if not want_sequence:
        return len(path) - 1, None
    steps = [_steps_between(space.states[path[i]], space.states[path[i + 1]], rule)
             for i in range(len(path) - 1)]
    return len(path) - 1, ReconSequence(set(start), steps)


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
