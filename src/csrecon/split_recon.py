"""Fixed-budget TAR reachability on split graphs via a meta-graph of clique-side subsets.

Every colorable set can first be inflated to a canonical maximal extension
that depends only on its clique-side part, so reachability collapses to a
path search on the graph whose nodes are small clique-side subsets and whose
edges join C to C+v exactly when the larger extension has a vertex to spare
above the size floor.

Extension sizes are arithmetic on bitmasks: each clique vertex x carries an
int holding the independent vertices adjacent to x, so
|T(C)| = |C| + |I| below the budget and |C| + |I| - popcount(AND of the
masks of C) at it.  Reachability and witnesses run one breadth-first search
from the source node that generates neighbours on demand and stops as soon
as the target node is discovered; extensions are materialised only along
the witness path.  ``build_meta_graph`` materialises the whole graph on the
same rules, for inspection only.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import InvariantError, ResourceLimitError, bfs, bfs_path, check_sets, make_tracker
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
        kpart = model.clique_part
        nbrs = model.graph.adjacency
        self.kside = sorted(kpart)
        self.masks = {x: sum(1 << u for u in nbrs[x] - kpart) for x in self.kside}
        self.all_ind = (1 << model.n) - 1 - sum(1 << x for x in self.kside)
        self.n_ind = model.n - len(kpart)
        self.c = c
        self.k = k

    def common(self, base):
        """The independent vertices adjacent to every vertex of C, as a mask."""
        mask = self.all_ind
        for x in base:
            mask &= self.masks[x]
        return mask

    def size(self, count, common):
        """|T(C)| for |C| = count; ``common`` is read only at the budget."""
        if count < self.c:
            return count + self.n_ind
        return count + self.n_ind - common.bit_count()

    def node_size(self, base):
        return self.size(len(base), self.common(base) if len(base) == self.c else 0)

    def neighbours(self, base):
        """Neighbours of node C in ascending meta-graph index order.

        First C-v in lexicographic order (v from last to first), then C+v by
        ascending v, which is the order of ``build_meta_graph``'s adjacency.
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
    """Nodes are canonical (sorted-tuple) clique-side subsets; ``tsets`` holds their extensions."""

    nodes: list
    tsets: list
    adj: list
    index: dict


def build_meta_graph(model, c, k, max_c=DEFAULT_MAX_C):
    """All clique-side subsets of size at most c whose extension reaches the floor k.

    C is adjacent to every subset C-v as soon as its own extension exceeds
    the floor; node and edge counts stay within sum_{i<=c} (|K| choose i).
    The whole graph is materialised, with every extension, for inspection;
    reachability and witnesses search it lazily instead.
    """
    _check_budget(c, max_c)
    rule = _MetaRule(model, c, k)
    nodes = [combo for size in range(min(c, len(rule.kside)) + 1)
             for combo in combinations(rule.kside, size) if rule.node_size(combo) >= k]
    index = {combo: i for i, combo in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for i, combo in enumerate(nodes):
        if not combo or rule.node_size(combo) < k + 1:
            continue
        for v in combo:
            j = index[tuple(x for x in combo if x != v)]
            adj[i].append(j)
            adj[j].append(i)
    for lst in adj:
        lst.sort()
    return MetaGraph(nodes, [t_set(model, combo, c) for combo in nodes], adj, index)


def _meta_path(model, c, k, start, target):
    """Meta-graph nodes from S's clique part to S2's, breadth first, or None."""
    src = tuple(sorted(start & model.clique_part))
    dst = tuple(sorted(target & model.clique_part))
    if src == dst:
        return [src]
    parent = bfs(src, _MetaRule(model, c, k).neighbours, dst)
    return bfs_path(parent, dst) if dst in parent else None


def split_tar_reachable(model, c, start, target, k, max_c=DEFAULT_MAX_C):
    """Decide TAR(k) reachability between two colorable sets of a split graph."""
    start = set(start)
    target = set(target)
    check_sets(model, c, start, target, k)
    if start == target:
        return True
    _check_budget(c, max_c)
    return _meta_path(model, c, k, start, target) is not None


def split_tar_witness(model, c, start, target, k, max_c=DEFAULT_MAX_C):
    """A valid (not necessarily shortest) TAR(k) sequence, or None when unreachable.

    The start set is inflated to its canonical extension, each meta-graph
    edge is realized by shrinking to the common part and adding the new
    clique vertex, and the final extension is deflated to the target.
    """
    start = set(start)
    target = set(target)
    check_sets(model, c, start, target, k)
    if start == target:
        return ReconSequence(set(start), [])
    _check_budget(c, max_c)
    path = _meta_path(model, c, k, start, target)
    if path is None:
        return None
    steps = []
    cur = set(start)
    for v in sorted(t_set(model, path[0], c) - cur):
        steps.append(("+", v))
        cur.add(v)
    for a, b in zip(path, path[1:]):
        t_b = t_set(model, b, c)
        if len(b) > len(a):
            (v,) = set(b) - set(a)
            mid = t_b - {v}
            for u in sorted(cur - mid):
                steps.append(("-", u))
                cur.remove(u)
            steps.append(("+", v))
            cur.add(v)
        else:
            (v,) = set(a) - set(b)
            steps.append(("-", v))
            cur.remove(v)
            for u in sorted(t_b - cur):
                steps.append(("+", u))
                cur.add(u)
        if cur != t_b:
            raise RuntimeError("meta-graph step did not land on the node extension")
    for u in sorted(cur - target):
        steps.append(("-", u))
        cur.remove(u)
    if cur != target:
        raise RuntimeError("deflation did not reach the target set")
    return ReconSequence(set(start), steps)
