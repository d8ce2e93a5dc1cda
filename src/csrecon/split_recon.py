"""Fixed-budget TAR reachability on split graphs via a meta-graph of clique-side subsets.

Every colorable set can first be inflated to a canonical maximal extension
that depends only on its clique-side part, so reachability collapses to a
path on the graph whose nodes are small clique-side subsets and whose edges
join C to C+v exactly when the larger extension has a vertex to spare above
the size floor k.

Below the budget |T(C)| = |C| + |I|.  At it, T(C) is exactly the vertices
outside C's common neighbourhood, so |T(C)| = n - popcount(AND of the graph's
neighbour masks of C).  Below the budget, then, the nodes are the subsets on
levels L = max(0, k - |I|) up to c - 1, one component whenever it spans two
levels, so a meta path needs no search except at the tight floor
k = |I| + c - 1.  There one search from both ends generates neighbours on
demand, stops as soon as the ends meet or either end's component runs out,
and returns the path a one-sided breadth-first search would.  Extensions are
materialised only along the witness path.  For inspection only,
``build_meta_graph`` applies the search's own neighbour rule to every node,
in (size, lexicographic) index order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import InvariantError, ResourceLimitError, check_sets, make_tracker, shortest_path
from .instances import ReconSequence

DEFAULT_MAX_C = 3


def t_set(model, base, c):
    """T(C), as a frozenset: clique-side subset C extended by every
    independent vertex that keeps it colorable.

    Below budget, every independent vertex fits; at exactly c clique
    vertices, independent vertices adjacent to all of C are excluded.
    """
    base = frozenset(base)
    if not base <= model.clique_part:
        raise InvariantError("C must be a subset of the clique part")
    if len(base) > c:
        raise InvariantError("C may contain at most c vertices")
    tracker = make_tracker(model, base, c)
    fits = {u for u in model.independent_part if tracker.can_add(u)}
    return base | fits


class _MetaRule:
    """Node sizes and neighbours of the meta-graph for one (model, c, k).

    Nodes are sorted tuples of clique vertices; C is a node when |T(C)| >= k,
    and C joins every C-v when |T(C)| >= k+1.
    """

    def __init__(self, model, c, k):
        self.kside = sorted(model.clique_part)
        self.masks = model.graph.neighbor_masks
        self.n, self.everyone = model.n, (1 << model.n) - 1   # the common neighbourhood of ()
        self.n_ind = model.n - len(self.kside)
        self.c = c
        self.k = k

    def common(self, base):
        """The vertices adjacent to every vertex of C, as a mask; all n for C = ()."""
        mask = self.everyone
        for x in base:
            mask &= self.masks[x]
        return mask

    def size(self, count, common):
        """|T(C)| for |C| = count: |C| + |I| below the budget, and n - popcount(``common``)
        at it, since K - C sees all of C, no vertex sees itself, and an independent
        vertex sees all of C exactly when T(C) excludes it.
        """
        if count < self.c:
            return count + self.n_ind
        return self.n - common.bit_count()

    def node_size(self, base):
        return self.size(len(base), self.common(base) if len(base) == self.c else 0)

    def neighbours(self, base):
        """Neighbours of node C in ascending (size, lexicographic) index order.

        First C-v in lexicographic order (v from last to first), then C+v by
        ascending v.  The search and ``build_meta_graph`` both use this rule.
        """
        count = len(base)
        if count and self.node_size(base) > self.k:
            for i in range(count - 1, -1, -1):
                yield base[:i] + base[i + 1:]
        if count == self.c:
            return
        common = self.common(base) if count + 1 == self.c else 0
        masks = self.masks
        pos = 0
        for v in self.kside:
            if pos < count and base[pos] == v:
                pos += 1
            elif self.size(count + 1, common & masks[v]) > self.k:
                yield base[:pos] + (v,) + base[pos:]


def _check_budget(c, max_c):
    if c > max_c:
        raise ResourceLimitError(
            f"c={c} exceeds cap {max_c}: construction cost grows as O(n^(c+1)); "
            "raise max_c to override")


@dataclass
class MetaGraph:
    """Nodes are canonical (sorted-tuple) clique-side subsets; ``t_set`` gives their extensions."""

    nodes: list
    adj: list
    index: dict


def build_meta_graph(model, c, k, max_c=DEFAULT_MAX_C):
    """All clique-side subsets of size at most c whose extension reaches the floor k.

    Nodes are indexed in (size, lexicographic) order, and each adjacency list
    is ``_MetaRule.neighbours`` of its node, the rule the solvers search
    lazily; node and edge counts stay within sum_{i<=c} (|K| choose i).
    """
    _check_budget(c, max_c)
    rule = _MetaRule(model, c, k)
    nodes = [combo for size in range(min(c, len(rule.kside)) + 1)
             for combo in combinations(rule.kside, size) if rule.node_size(combo) >= k]
    index = {combo: i for i, combo in enumerate(nodes)}
    adj = [[index[nb] for nb in rule.neighbours(node)] for node in nodes]
    return MetaGraph(nodes, adj, index)


def _meta_path(model, c, k, start, target, max_c=DEFAULT_MAX_C):
    """A shortest meta path from S's clique part to S2's, or None; ``check_sets`` runs first.

    Off the tight floor the path sheds S-side vertices in ascending order,
    first swapping in the next S2-side one whenever the level is L, then adds
    the rest.  At it, ``shortest_path`` searches from both ends and returns the
    one-sided breadth-first search's path.  Both ends are nodes: the extension
    of S's clique part holds S.
    """
    start, target = set(start), set(target)
    check_sets(model, c, start, target, k)
    src = tuple(sorted(start & model.clique_part))
    dst = tuple(sorted(target & model.clique_part))
    if src == dst:
        return [src]
    rule = _MetaRule(model, c, k)
    low = max(0, k - rule.n_ind)
    if tight := 0 < low == c - 1 < len(rule.kside):
        _check_budget(c, max_c)
    if any(len(end) == c and rule.node_size(end) <= k for end in (src, dst)):
        return None   # an end at level c with |T| = k has no meta edge, on any floor
    if tight:
        return shortest_path(src, dst, rule.neighbours)
    cur, path = set(src), [src]
    adds = iter(sorted(set(dst) - cur))
    for v in sorted(cur - set(dst)):
        if len(cur) == low:
            cur.add(next(adds))
            path.append(tuple(sorted(cur)))
        cur.remove(v)
        path.append(tuple(sorted(cur)))
    for v in adds:
        cur.add(v)
        path.append(tuple(sorted(cur)))
    return path


def split_tar_reachable(model, c, start, target, k, max_c=DEFAULT_MAX_C):
    """Decide TAR(k) reachability between two colorable sets of a split graph."""
    return _meta_path(model, c, k, start, target, max_c) is not None


def split_tar_witness(model, c, start, target, k, max_c=DEFAULT_MAX_C):
    """A valid (not necessarily shortest) TAR(k) sequence, or None when unreachable.

    The sets pass through T(C) for each meta path node C, then the target;
    each leg removes what its goal lacks, then adds what it holds.  Nodes
    differ by one clique vertex v: adding v, the removals are the independent
    vertices v's budget excludes; removing v, those come back after it.
    Removals go first, so every set stays colorable, and a meta edge's larger
    extension exceeds k, so none drops below k.
    """
    path = _meta_path(model, c, k, start, target, max_c)
    if path is None:
        return None
    start, target = set(start), set(target)
    if start == target:
        return ReconSequence(start, [])
    steps = []
    cur = start
    for goal in [*(t_set(model, node, c) for node in path), target]:
        steps += [("-", u) for u in sorted(cur - goal)]
        steps += [("+", u) for u in sorted(goal - cur)]
        cur = goal
    return ReconSequence(start, steps)
