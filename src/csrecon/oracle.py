"""Ground-truth engine: BFS over the graph of all colorable sets.

Only meant for desk-size instances.  The state space, the distance and the
connectivity report are guarded by a vertex-count cap and a cap on the number
of enumerated states, which is optional for distances and defaults to
``DEFAULT_REPORT_MAX_STATES`` for the report, whose diameters take one BFS per
state.  ``enumerate_colorable_sets`` has only the optional state cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import (InvariantError, ResourceLimitError, bfs, bfs_path, check_sets, make_tracker,
                   shortest_path)
from .instances import ReconSequence

DEFAULT_MAX_N = 20
DEFAULT_REPORT_MAX_STATES = 1024


@dataclass
class StateSpace:
    """All feasible sets under one rule, and that rule's one-step moves.

    States are int bitmasks (bit v for member v) in lexicographic order of
    their sorted members; ``index`` maps a mask to its position.  A distance
    search asks ``neighbours`` only for the states it expands and stops at
    the target; ``adj``, the whole adjacency, is built from the same rule on
    first use.
    """

    states: list
    index: dict
    rep: object
    rule: str

    @cached_property
    def moves(self):
        """XOR masks of one step: a vertex under tar, a vertex pair under tj, an edge under ts."""
        if self.rule == "tar":
            return [1 << v for v in range(self.rep.n)]
        return [1 << u | 1 << v for u in range(self.rep.n) for v in range(u + 1, self.rep.n)
                if self.rule == "tj" or self.rep.has_edge(u, v)]

    def neighbours(self, i):
        """The indices, ascending, of the states one step from state ``i``; a swap of two
        members or two nonmembers changes the size under tj and ts, so it finds no state."""
        index = self.index
        return sorted(map(index.__getitem__,
                          filter(index.__contains__, map(self.states[i].__xor__, self.moves))))

    @cached_property
    def adj(self):
        return [self.neighbours(i) for i in range(len(self.states))]


def enumerate_colorable_sets(g_or_model, c, min_size=0, exact_size=None, max_states=None):
    """All colorable vertex sets, as bitmasks (bit v for member v), in lexicographic order.

    One feasibility tracker follows a walk that adds vertices in ascending order and
    records each set before its extensions, which is already lexicographic order.
    Colorable sets are closed under taking subsets, so a vertex that does not fit a set
    fits none of its supersets: each node tests its candidates once and hands its
    children only the later ones that fitted; the last fit has none, so its set is
    recorded without a call.  A branch is also cut once its candidates can no longer
    reach the size floor, and never grows past the exact size, so a high floor prunes
    most of the search too (the edgeless 20-vertex graph at tar k=20 takes 210
    ``can_add`` tests).
    """
    masks = []
    tracker = make_tracker(g_or_model, (), c)
    record, can_add, add, remove = masks.append, tracker.can_add, tracker.add, tracker.remove
    floor = min_size if exact_size is None else max(min_size, exact_size)
    too_many = (f"oracle guard: state count exceeds max_states={max_states}; "
                "raise max_states (--max-states) to override")

    def grow(mask, size, candidates):
        if size >= floor:
            record(mask)
            if max_states is not None and len(masks) > max_states:
                raise ResourceLimitError(too_many)
        if size == exact_size:
            return
        fits = list(filter(can_add, candidates))
        # adding fits[i] leaves len(fits) - i - 1 candidates, which must reach the floor
        stop = len(fits) - max(0, floor - size - 1)
        leaf = stop == len(fits) > 0    # the last fit has no later candidates: record it here
        for i in range(stop - leaf):
            v = fits[i]
            add(v)
            grow(mask | 1 << v, size + 1, fits[i + 1:])
            remove(v)
        if leaf:
            record(mask | 1 << fits[-1])
            if max_states is not None and len(masks) > max_states:
                raise ResourceLimitError(too_many)

    grow(0, 0, range(g_or_model.n))
    return masks


def build_state_space(g_or_model, c, size, rule, max_n=DEFAULT_MAX_N, max_states=None):
    """The feasible sets under ``rule``; their moves are generated on demand.

    Under tar the sets have at least ``size`` members, under tj and ts
    exactly ``size``.  Only the connectivity report reads ``adj``.
    """
    n = g_or_model.n
    if n > max_n:
        raise ResourceLimitError(f"oracle guard: n={n} exceeds {max_n}; raise max_n to override")
    tar = rule == "tar"
    if not tar and rule not in ("tj", "ts"):
        raise InvariantError(f"unknown rule '{rule}'")
    try:  # the walk recurses once per member, so a lifted max_n can outgrow the stack
        states = enumerate_colorable_sets(g_or_model, c, size if tar else 0,
                                          None if tar else size, max_states)
    except RecursionError:
        raise ResourceLimitError(
            f"oracle guard: n={n} nests the enumeration too deep; lower max_n") from None
    return StateSpace(states, dict(zip(states, range(len(states)))), g_or_model, rule)


def _steps_between(prev, nxt, rule):
    gone, new = (prev & ~nxt).bit_length() - 1, (nxt & ~prev).bit_length() - 1
    if rule == "tar":
        return ("+", new) if nxt > prev else ("-", gone)
    return (">", gone, new)


def oracle_distance(g_or_model, c, start, target, k=0, rule="tar",
                    max_n=DEFAULT_MAX_N, max_states=None, trackers=None):
    """Exact shortest distance and a shortest sequence, by a search from both ends.

    The sequence follows the path a BFS from the start side would find.
    Returns ``(distance, sequence)``; when the two sets lie in different
    components the distance is ``math.inf`` and the sequence is None.  Given
    the (S, S2) ``trackers`` of an earlier validation, the sets are not checked again.
    """
    if not trackers:
        check_sets(g_or_model, c, start, target, k, same_size=rule != "tar")
    space = build_state_space(g_or_model, c, k if rule == "tar" else len(start), rule,
                              max_n=max_n, max_states=max_states)
    src = space.index[sum(1 << v for v in start)]
    dst = space.index[sum(1 << v for v in target)]
    path = shortest_path(src, dst, space.neighbours)
    if path is None:
        return math.inf, None
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
    space = build_state_space(g_or_model, c, k, rule, max_n=max_n, max_states=max_states)
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
