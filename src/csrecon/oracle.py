"""Ground-truth engine: shortest paths over the graph of colorable sets.

Only meant for desk-size instances.  A distance is proved by one bounded depth-first pass,
or else searched by BFS from both ends; the connectivity report runs BFS over the enumerated
sets.  Both have a vertex-count cap and a state cap, on the sets a distance discovers
(optional) or on those the report enumerates (``DEFAULT_REPORT_MAX_STATES`` by default, as
its diameters take one BFS per state).  ``enumerate_colorable_sets`` has only the optional
state cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, filterfalse

from .core import (InvariantError, ResourceLimitError, bfs, bfs_path, check_sets, make_tracker,
                   shortest_path)
from .instances import ReconSequence

DEFAULT_MAX_N = 20
DEFAULT_REPORT_MAX_STATES = 1024
_TOO_MANY = ("oracle guard: state count exceeds max_states={}; "
             "raise max_states (--max-states) to override")


@dataclass
class StateSpace:
    """The feasible sets under one rule, as int bitmasks (bit v for member v).

    Under tar the sets have at least ``size`` members, under tj and ts exactly
    ``size``.  ``keys`` holds the feasible sets found and ``infeasible`` the sets
    refused, so no set is tested twice; one ``tracker`` follows the tests.  Only the
    report enumerates ``states``, with ``index`` a mask's position there, and reads
    ``adj``, the adjacency by index, each row in ascending order.
    """

    rep: object
    c: int
    rule: str
    size: int
    max_states: int = None   # a cap on the sets found
    target: int = 0          # the set a ``neighbours`` bound is measured from
    states: list = None
    index: dict = None

    def __post_init__(self):
        self.keys, self.infeasible = set(), set()
        self.tracker, self.held = make_tracker(self.rep, (), self.c), 0    # and the set it holds

    @cached_property
    def moves(self):
        """XOR masks of one step: a vertex under tar, a pair u < v under tj, an edge under ts."""
        if self.rule == "tar":
            return [1 << v for v in range(self.rep.n)]
        return [1 << u | 1 << v for u in range(self.rep.n) for v in range(u + 1, self.rep.n)
                if self.rule == "tj" or self.rep.has_edge(u, v)]

    def remember(self, mask):
        """Add the feasible set ``mask`` to ``keys``, within ``max_states``."""
        self.keys.add(mask)
        if self.max_states is not None and len(self.keys) > self.max_states:
            raise ResourceLimitError(_TOO_MANY.format(self.max_states))

    def neighbours(self, mask, bound=None):
        """The feasible sets one step from the feasible set ``mask``, in ``moves`` order, so
        the path a search returns is the first shortest one in move order.

        A set not yet known is tested once: a tar removal needs only the floor, and a set
        that adds v is tested with ``can_add(v)`` on the tracker moved to its other members.
        Given a ``bound``, the sets that differ from ``target`` in more members are dropped.
        """
        keys, infeasible = self.keys, self.infeasible
        flips = list(map(mask.__xor__, self.moves))
        if self.rule != "tar" or mask.bit_count() == self.size:    # keep the allowed sizes
            fits = self.size.__le__ if self.rule == "tar" else self.size.__eq__
            flips = list(compress(flips, map(fits, map(int.bit_count, flips))))
        if bound is not None:
            flips = list(compress(flips, map(bound.__ge__, map(
                int.bit_count, map(self.target.__xor__, flips)))))
        for new in filterfalse(infeasible.__contains__, filterfalse(keys.__contains__, flips)):
            added = new & ~mask
            if not added or self._tracker_at(mask & new).can_add(added.bit_length() - 1):
                self.remember(new)
            else:
                infeasible.add(new)
        return list(filter(keys.__contains__, flips))

    def _tracker_at(self, mask):
        """The space's one tracker, moved from the set it held to ``mask`` by adds and removes."""
        if mask != self.held:
            for diff, move in ((self.held & ~mask, self.tracker.remove),
                               (mask & ~self.held, self.tracker.add)):
                while diff:
                    move(diff.bit_length() - 1)
                    diff ^= 1 << diff.bit_length() - 1
            self.held = mask
        return self.tracker

    @cached_property
    def adj(self):
        return [sorted(map(self.index.__getitem__, self.neighbours(mask))) for mask in self.states]


def enumerate_colorable_sets(g_or_model, c, min_size=0, exact_size=None, max_states=None):
    """All colorable vertex sets, as bitmasks (bit v for member v), in lexicographic order.

    One feasibility tracker follows a walk that adds vertices in ascending order and
    records each set before its extensions, which is already lexicographic order.
    Colorable sets are closed under taking subsets, so a vertex that does not fit a set
    fits none of its supersets: each node tests its candidates once and hands its
    children only the later ones that fitted.  A branch is also cut once its candidates
    can no longer reach the size floor, and never grows past the exact size, so a high
    floor prunes most of the search too (the edgeless 20-vertex graph at tar k=20 takes
    210 ``can_add`` tests).
    """
    masks = []
    floor = min_size if exact_size is None else max(min_size, exact_size)
    _grow(masks, make_tracker(g_or_model, (), c), floor, exact_size, max_states,
          0, 0, range(g_or_model.n))
    return masks


def _grow(masks, tracker, floor, exact_size, max_states, mask, size, candidates):
    """Record ``mask``, the set ``tracker`` holds, then walk its extensions by the fitting
    ``candidates``: a plain function, not a closure, so that no walk leaves a reference cycle."""
    if size >= floor:
        masks.append(mask)
        if max_states is not None and len(masks) > max_states:
            raise ResourceLimitError(_TOO_MANY.format(max_states))
    if size == exact_size:
        return
    fits = list(filter(tracker.can_add, candidates))
    # adding fits[i] leaves len(fits) - i - 1 candidates, which must reach the floor
    for i in range(len(fits) - max(0, floor - size - 1)):
        v = fits[i]
        tracker.add(v)
        _grow(masks, tracker, floor, exact_size, max_states, mask | 1 << v, size + 1,
              fits[i + 1:])
        tracker.remove(v)


def _guard(n, rule, max_n):
    if n > max_n:
        raise ResourceLimitError(f"oracle guard: n={n} exceeds {max_n}; raise max_n to override")
    if rule not in ("tar", "tj", "ts"):
        raise InvariantError(f"unknown rule '{rule}'")


def build_state_space(g_or_model, c, size, rule, max_n=DEFAULT_MAX_N, max_states=None):
    """The state space with its sets enumerated, at most ``max_states`` of them."""
    n = g_or_model.n
    _guard(n, rule, max_n)
    try:  # the walk recurses once per member, so a lifted max_n can outgrow the stack
        states = enumerate_colorable_sets(g_or_model, c, size if rule == "tar" else 0,
                                          None if rule == "tar" else size, max_states)
    except RecursionError:
        raise ResourceLimitError(
            f"oracle guard: n={n} nests the enumeration too deep; lower max_n") from None
    return StateSpace(g_or_model, c, rule, size, states=states,
                      index=dict(zip(states, range(len(states)))))


def _steps_between(prev, nxt, rule):
    gone, new = (prev & ~nxt).bit_length() - 1, (nxt & ~prev).bit_length() - 1
    if rule == "tar":
        return ("+", new) if nxt > prev else ("-", gone)
    return (">", gone, new)


def oracle_distance(g_or_model, c, start, target, k=0, rule="tar",
                    max_n=DEFAULT_MAX_N, max_states=None, trackers=None):
    """Exact shortest distance and a shortest sequence, testing only the sets discovered.

    One depth-first pass (IDA*, Korf 1985, for the single bound D = h(S)) takes neighbours in
    order and cuts a set X at depth g when g + h(X) > D, for h(X) = |X ^ S2| under tar and
    |X ^ S2| // 2 under tj and ts, which never exceeds X's distance to S2.  A path it finds is
    the first shortest one in move order, the one ``core.shortest_path`` returns, which
    searches when the pass fails.  Returns ``(distance, sequence)``; when the two sets lie in
    different components the distance is ``math.inf`` and the sequence is None.  Given the
    (S, S2) ``trackers`` of an earlier validation, the sets are not checked again.
    """
    if not trackers:
        check_sets(g_or_model, c, start, target, k, same_size=rule != "tar")
    _guard(g_or_model.n, rule, max_n)
    src, dst = (sum(1 << v for v in s) for s in (start, target))
    space = StateSpace(g_or_model, c, rule, k if rule == "tar" else len(start), max_states, dst)
    for mask in {src, dst}:
        space.remember(mask)
    per_step = 1 if rule == "tar" else 2    # members of X ^ S2 one step can mend
    most = (src ^ dst).bit_count() // per_step    # the pass's bound D = h(S)
    # a tar target at the floor can only gain a member; without one the pass covers S's side
    if src != dst and rule == "tar" and dst.bit_count() == k and not space.neighbours(dst):
        return math.inf, None
    path, todo, failed = [src], [], {}    # failed: the most steps left a set failed with
    while path and path[-1] != dst:
        left = most - len(path)    # the steps left after the next step
        if len(todo) < len(path):
            todo.append(iter(space.neighbours(path[-1], per_step * left)))
        nxt = next(todo[-1], None)
        if nxt is None:
            todo.pop()
            failed[path.pop()] = left + 1
        elif failed.get(nxt, -1) < left:
            path.append(nxt)
    if not path:
        path = shortest_path(src, dst, space.neighbours)
    if path is None:
        return math.inf, None
    steps = [_steps_between(path[i], path[i + 1], rule) for i in range(len(path) - 1)]
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
