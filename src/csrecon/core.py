"""Core graph types: simple graphs, split partitions, interval clique paths."""
from __future__ import annotations

import sys
from collections import deque
from itertools import accumulate, compress, count, filterfalse
from operator import gt

DEFAULT_EXACT_LIMIT = 64  # largest set the exact coloring backtracks over by default
_NO_NEIGHBOURS = frozenset()  # shared by every isolated vertex of every Graph


class InvariantError(ValueError):
    """Input data violates a structural precondition; the message names it."""


class FormatError(ValueError):
    """Malformed instance or sequence text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceLimitError(RuntimeError):
    """A computation would exceed a size guard; pass an override to proceed."""


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``adjacency[v]`` is the set of v's neighbours, built while the edges are
    validated; isolated vertices share one empty frozenset, so each costs one
    list slot.  Neighbour bitmasks are built per vertex on first lookup.
    """

    __slots__ = ("n", "m", "adjacency", "_neighbor_masks")

    def __init__(self, n, edges=()):
        if n < 0:
            raise InvariantError("vertex count must be nonnegative")
        if n > sys.maxsize:
            raise InvariantError(f"vertex count {n} exceeds the largest list size {sys.maxsize}")
        adjacency = [_NO_NEIGHBOURS] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantError(f"vertex index out of range in edge ({u}, {v})")
            if u == v:
                raise InvariantError(f"loop at vertex {u}")
            # the shared empty set is falsy: an end gets its own set on its first edge
            adjacency[u] = nbrs = adjacency[u] or set()
            if v in nbrs:
                raise InvariantError(f"parallel edge ({min(u, v)}, {max(u, v)})")
            nbrs.add(v)
            adjacency[v] = nbrs = adjacency[v] or set()
            nbrs.add(u)
            m += 1
        self.n = n
        self.m = m
        self.adjacency = adjacency
        self._neighbor_masks = None

    @property
    def neighbor_masks(self):
        """Bit u of entry v is set when u is a neighbor of v."""
        if self._neighbor_masks is None:
            self._neighbor_masks = _NeighborMasks(self.adjacency)
        return self._neighbor_masks

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        return v in self.adjacency[u]

    def edges(self):
        """Each edge once as (u, v) with u < v, in ascending order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in sorted(nbrs):
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class _NeighborMasks(dict):
    """Neighbor bitmasks, each built on first lookup in O(n); a full table takes O(n^2) bits."""

    def __init__(self, adjacency):
        self.adjacency = adjacency

    def __missing__(self, v):
        return self.setdefault(v, _bits(self.adjacency[v]))


def _bits(members):
    """The int with bit u set for each u in the list ``members``."""
    bits = bytearray(max(members, default=-1) // 8 + 1)   # linear in n, unlike a running sum
    for u in members:
        bits[u >> 3] |= 1 << (u & 7)
    return int.from_bytes(bits, "little")


class IntervalModel:
    """Clique-path model of an interval graph.

    The maximal cliques are ordered M_1..M_t so that every vertex v occupies
    the consecutive run M_lefts[v]..M_rights[v], with 1-based indices; the
    two int lists are parallel.  Two vertices are adjacent exactly when
    their runs intersect, and the runs themselves form an interval
    representation of the graph.  ``model_from_intervals`` builds it; the
    constructor only stores its arguments.
    """

    __slots__ = ("t", "lefts", "rights")

    def __init__(self, t, lefts, rights):
        self.t = t
        self.lefts = lefts
        self.rights = rights

    @property
    def n(self):
        return len(self.lefts)

    def has_edge(self, u, v):
        return self.lefts[u] <= self.rights[v] and self.lefts[v] <= self.rights[u]

    def __repr__(self):
        return f"IntervalModel(n={self.n}, t={self.t})"


class SplitModel:
    """Split graph: ``clique_part`` is a clique, and the other vertices form an
    independent set; both are checked.  Only the clique part is stored, so a
    large vertex count with few edges costs little; ``independent_part`` is
    built when read.
    """

    __slots__ = ("graph", "clique_part")

    def __init__(self, graph, clique_part):
        kpart = set(clique_part)
        n = graph.n
        if any(not 0 <= v < n for v in kpart):
            raise InvariantError("partition contains a vertex index out of range")
        nbrs = graph.adjacency
        # no vertex is its own neighbour, so u's non-neighbours in a clique are just u
        if any(len(kpart - nbrs[u]) != 1 for u in kpart):
            raise InvariantError("clique part is not a clique")
        # the independent part is independent iff each of its vertices sees only K
        if any(nb and u not in kpart and not nb <= kpart for u, nb in enumerate(nbrs)):
            raise InvariantError("independent part is not independent")
        self.graph = graph
        self.clique_part = kpart

    @property
    def n(self):
        return self.graph.n

    @property
    def independent_part(self):
        return set(range(self.graph.n)) - self.clique_part

    def has_edge(self, u, v):
        return self.graph.has_edge(u, v)

    def __repr__(self):
        return f"SplitModel(n={self.n}, |K|={len(self.clique_part)})"


def model_from_intervals(endpoints):
    """Build the clique-path model whose adjacency equals interval intersection.

    ``endpoints`` is a list of int pairs ``(left, right)`` with ``left <= right``.
    One sweep over the distinct right-end coordinates in order builds the whole
    path: when a left-end coordinate at or below the current one is unconsumed,
    the current one closes clique t+1, which every left-end coordinate consumed
    in that step opens.  That rule closes exactly the maximal cliques, in path
    order, so no containment filtering is needed.  A vertex's run is read off
    the cliques its two coordinates open and close; ``parse_document`` hands the
    coordinates of a canonical body to ``_clique_path``, with no pair list.
    """
    ls = [l for l, _ in endpoints]
    rs = [r for _, r in endpoints]
    for v in compress(count(), map(gt, ls, rs)):  # reached only to name the first bad pair
        raise InvariantError(f"malformed endpoint pair for vertex {v}: ({ls[v]}, {rs[v]})")
    return _clique_path(ls, rs)


def _clique_path(ls, rs):
    """``model_from_intervals`` on parallel coordinate lists already checked ``l <= r``."""
    opens, closes = {}, {}  # coordinate -> clique index
    starts = sorted(set(ls))
    starts.append(float("inf"))  # above every right end, so the sweep needs no bounds test
    t = i = 0
    for r in sorted(set(rs)):
        if starts[i] <= r:
            t += 1
            while starts[i] <= r:
                opens[starts[i]] = t
                i += 1
        closes[r] = t
    return IntervalModel(t, list(map(opens.__getitem__, ls)), list(map(closes.__getitem__, rs)))


def interval_clique_counts(model, members):
    """Per-clique member counts; entry i is the size of the overlap with clique i+1."""
    diff = [0] * (model.t + 1)
    lefts, rights = model.lefts, model.rights
    for v in members:
        diff[lefts[v] - 1] += 1
        diff[rights[v]] -= 1
    counts = list(accumulate(diff))
    counts.pop()
    return counts


def is_colorable_exact(g, members, c, limit=DEFAULT_EXACT_LIMIT):
    """Exact colorability of the induced subgraph: linear for c <= 2, backtracking above.

    Guarded by ``limit`` on the set size for every c; raise the limit
    explicitly for bigger sets.
    """
    return _exact_classes(g, members, c, limit) is not None


def _exact_classes(g, members, c, limit=DEFAULT_EXACT_LIMIT):
    """A proper coloring of ``members`` as min(c, n) class bitmasks, or None.

    For c <= 2, breadth-first layers swept as bitmasks decide it in linear
    time: a set is 1-colorable iff independent and 2-colorable iff no layer
    holds an edge, which would close an odd cycle (König); the alternating
    sides are the classes.  Only c >= 3 backtracks, letting each vertex use
    at most one color beyond the highest placed so far.
    """
    verts = sorted(members)
    if c < 0:
        raise InvariantError("color budget must be nonnegative")
    if len(verts) <= c:
        return [1 << v for v in verts] + [0] * (min(c, g.n) - len(verts))
    if c == 0:
        return None
    if len(verts) > limit:
        raise ResourceLimitError(
            f"exact coloring guard: set size {len(verts)} exceeds {limit}")
    nbrs = g.neighbor_masks
    if c <= 2:
        rest, sides = sum(1 << v for v in verts), [0, 0]
        while rest:
            layer, side = rest & -rest, 0
            while layer:
                rest ^= layer
                sides[side] |= layer
                reach = 0
                while layer:
                    low = layer & -layer
                    reach |= nbrs[low.bit_length() - 1]
                    layer ^= low
                if reach & sides[side] or c == 1 and reach & rest:   # c = 1: no second side
                    return None
                side ^= 1
                layer = reach & rest
        return sides[:c]
    classes = [0] * c
    return classes if _extend(verts, nbrs, classes, 0, 0) else None


def _extend(verts, nbrs, classes, i, used):
    """Color ``verts[i:]`` into ``classes``, ``used`` of them in use; not a closure, so acyclic."""
    if i == len(verts):
        return True
    v = verts[i]
    for color in range(min(used + 1, len(classes))):
        if not classes[color] & nbrs[v]:
            classes[color] |= 1 << v
            if _extend(verts, nbrs, classes, i + 1, max(used, color + 1)):
                return True
            classes[color] ^= 1 << v
    return False


def check_sets(rep, c, start, target, k, same_size=False):
    """Raise InvariantError naming the first violated precondition on (c, k, S, S2).

    Checks c >= 1, k >= 0, the vertex range, |S|, |S2| >= k, that both sets
    are c-colorable and, with ``same_size``, that |S| = |S2|.  Returns the
    feasibility trackers of S and S2 that the colorability test built.
    """
    if c < 1:
        raise InvariantError("color budget c must be at least 1")
    if k < 0:
        raise InvariantError("threshold k must be nonnegative")
    n = rep.n
    for name, s in (("S", start), ("S2", target)):
        if s and not (0 <= min(s) and max(s) < n):
            v = next(v for v in s if not 0 <= v < n)  # the first bad one, to name it
            raise InvariantError(f"{name}: vertex {v} out of range")
    if len(start) < k or len(target) < k:
        raise InvariantError("threshold violated: |S| and |S2| must be at least k")
    trackers = []
    for name, s in (("S", start), ("S2", target)):
        tracker = make_tracker(rep, s, c)
        if not tracker.colorable():
            raise InvariantError(f"{name} is not {c}-colorable")
        trackers.append(tracker)
    if same_size and len(start) != len(target):
        raise InvariantError("size mismatch: |S| must equal |S2| under tj/ts")
    return tuple(trackers)


class _IntervalTracker:
    """Incremental clique counts so replay costs O(run length) per step."""

    def __init__(self, model, members, c):
        self.lefts = model.lefts
        self.rights = model.rights
        self.c = c
        self.members = set(members)
        self.counts = interval_clique_counts(model, self.members)

    def colorable(self):
        return max(self.counts, default=0) <= self.c

    def can_add(self, v):
        return max(self.counts[self.lefts[v] - 1:self.rights[v]]) < self.c

    def addable(self, among=None):
        """Nonmembers (of ``among`` when given) that can be added, ascending.

        A vertex fits iff no clique of its run is full; one prefix sum over
        the full cliques answers that in O(1) per vertex.
        """
        full = [0, *accumulate(map(self.c.__le__, self.counts))]
        lefts, rights = self.lefts, self.rights
        members = self.members
        for v in range(len(lefts)) if among is None else sorted(among):
            if v not in members and full[rights[v]] == full[lefts[v] - 1]:
                yield v

    def add(self, v):
        self.members.add(v)
        for i in range(self.lefts[v] - 1, self.rights[v]):
            self.counts[i] += 1

    def remove(self, v):
        self.members.discard(v)
        for i in range(self.lefts[v] - 1, self.rights[v]):
            self.counts[i] -= 1


class _SplitTracker:
    """Clique part C and independent part of a set of a split model.

    The set is c-colorable iff |C| <= c and, when |C| = c, no independent
    member is adjacent to all of C, which would close a (c+1)-clique.
    """

    def __init__(self, model, members, c):
        self.clique_part = model.clique_part
        self.nbrs = model.graph.adjacency
        self.c = c
        self.members = set(members)
        self.chosen = self.members & model.clique_part

    def _closes_clique(self, chosen, others):
        # scanning clique members too is harmless: none is its own neighbour
        nbrs = self.nbrs
        return len(chosen) == self.c and any(chosen <= nbrs[u] for u in others)

    def colorable(self):
        return len(self.chosen) <= self.c and not self._closes_clique(self.chosen, self.members)

    def can_add(self, v):
        if v in self.clique_part:
            grown = self.chosen | {v}
            return len(grown) <= self.c and not self._closes_clique(grown, self.members)
        return not self._closes_clique(self.chosen, (v,))

    def add(self, v):
        self.members.add(v)
        if v in self.clique_part:
            self.chosen.add(v)

    def remove(self, v):
        self.members.discard(v)
        self.chosen.discard(v)


class _ExactTracker:
    """A set of a plain graph with a proper coloring kept as class bitmasks.

    ``can_add(v)`` recolors only when v sees every color and c >= 2, in linear
    time for c = 2 and by backtracking for c >= 3, and keeps the coloring it finds;
    the start set is colored on first use.
    """

    def __init__(self, g, members, c):
        self.g = g
        self.nbrs = g.neighbor_masks
        self.c = c
        self.members = set(members)
        self.classes = None     # coloring of the members; None until needed, or if none
        self.guard = max(DEFAULT_EXACT_LIMIT, c)

    def colorable(self):
        if self.classes is None or len(self.members) > self.guard:
            self.classes = _exact_classes(self.g, self.members, self.c)  # raises past the guard
        return self.classes is not None

    def can_add(self, v):
        members = self.members
        if len(members) >= self.guard:  # past the guard: answer or raise
            return _exact_classes(self.g, members | {v}, self.c) is not None
        if self.classes is None and not self.colorable():
            return False
        seen = self.nbrs[v]
        for cls in self.classes:
            if not cls & seen:
                return True
        # at c = 1 the coloring is unique, so no recoloring frees a class for v
        classes = self.c > 1 and _exact_classes(self.g, members | {v}, self.c)
        if classes:
            self.classes = [cls & ~(1 << v) for cls in classes]
        return bool(classes)

    def add(self, v):
        self.members.add(v)
        if self.classes is not None:
            seen = self.nbrs[v]
            for i, cls in enumerate(self.classes):
                if not cls & seen:
                    self.classes[i] = cls | 1 << v
                    return
            self.classes = None     # recolored on next use

    def remove(self, v):
        self.members.discard(v)
        for i, cls in enumerate(self.classes or ()):
            if cls >> v & 1:
                self.classes[i] = cls ^ 1 << v
                return


def make_tracker(rep, members, c):
    """Feasibility of a vertex set of ``rep``, one tracker per representation.

    The tracker copies the set into ``members``, which callers read but change
    only through ``add`` and ``remove``.  ``colorable()`` tests the whole set;
    ``can_add(v)`` asks about adding a nonmember v and never changes the set,
    whatever v is.
    """
    if isinstance(rep, IntervalModel):
        return _IntervalTracker(rep, members, c)
    if isinstance(rep, SplitModel):
        return _SplitTracker(rep, members, c)
    return _ExactTracker(rep, members, c)


def split_partition(g):
    """Partition a graph into (clique, independent) parts, or return None.

    Degree-sequence test: with degrees d_1 >= ... >= d_n, let h be the largest
    index with d_h >= h-1.  The graph is split iff the top-h degrees sum to
    h(h-1) plus the sum of the rest, and then the h highest-degree vertices
    form the clique side.  The resulting partition is verified before return.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    h = 0
    for j in range(n):
        if degs[j] >= j:
            h = j + 1
        else:
            break
    if sum(degs[:h]) != h * (h - 1) + sum(degs[h:]):
        return None
    return SplitModel(g, order[:h])


def bfs(source, neighbours, goal=None):
    """Breadth-first search from ``source``; the parent links in discovery order.

    ``neighbours(node)`` yields the nodes one step away.  A node's parent is
    the first node that discovers it, and the source's parent is None.  The
    search stops as soon as ``goal`` is discovered (at once when it is the
    source); without a goal it covers the component of the source.
    """
    parent = {source: None}
    if source == goal:
        return parent
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in neighbours(node):
            if nxt not in parent:
                parent[nxt] = node
                if nxt == goal:
                    return parent
                queue.append(nxt)
    return parent


def bfs_path(parent, node):
    """The nodes from the search's source to ``node``, following ``bfs``'s parent links."""
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return path


def shortest_path(source, goal, neighbours):
    """``bfs_path(bfs(source, neighbours, goal), goal)``, or None when ``goal`` is unreachable,
    searched from both ends (Pohl's bidirectional search).  ``neighbours`` must be symmetric
    and list a node's neighbours in the same order on every call.

    Whole layers grow from whichever end has the smaller frontier until the ends meet.
    First-discoverer BFS returns the shortest path whose nodes come first, compared node
    by node from the source by their places in their predecessors' neighbour lists.  So
    the path's first node on the goal side's complete layers is the first such node in
    forward discovery order, and its prefix is that node's parent chain; from there each
    step takes the first neighbour one layer nearer the goal.
    """
    if source == goal:
        return [source]
    parent, depth = {source: None}, {goal: 0}
    front, back = [source], [goal]
    while front and back:
        layer = []
        if len(front) <= len(back):
            for node in front:
                for nxt in filterfalse(parent.__contains__, neighbours(node)):
                    parent[nxt] = node
                    if nxt in depth:
                        return _joined(parent, depth, nxt, neighbours)
                    layer.append(nxt)
            front = layer
        else:
            step = depth[back[0]] + 1
            for node in back:
                for nxt in filterfalse(depth.__contains__, neighbours(node)):
                    depth[nxt] = step
                    layer.append(nxt)
            back = layer
            if not parent.keys().isdisjoint(layer):   # met, and only now is the layer complete
                return _joined(parent, depth, next(filter(depth.__contains__, front)), neighbours)
    return None


def _joined(parent, depth, meet, neighbours):
    path = bfs_path(parent, meet)
    for step in range(depth[meet] - 1, -1, -1):
        path.append(next(nxt for nxt in neighbours(path[-1]) if depth.get(nxt) == step))
    return path
