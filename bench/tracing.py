"""Spans around the calls into each csrecon layer, for the traced run.

``install`` replaces, for the duration of one traced pass, the module-level
names through which one layer calls another (``csrecon.cli.parse_instance``,
``csrecon.instances.model_from_intervals``, ...) with wrappers that record a
span: name, instance id, parent span, start and end.  Nothing inside the
program changes; ``restore`` puts the original names back.  Counts are
taken from the arguments and return values at the same boundaries.
"""
from __future__ import annotations

import json
import math
from collections import Counter, deque
from time import perf_counter

# per-layer metrics reported by the traced run, with their units
TIMED = (
    "instances.parse_instance", "core.model_from_intervals", "instances.check_instance",
    "core.graph_build", "interval_recon.distance", "interval_recon.sequence",
    "instances.render_sequence", "instances.parse_sequence", "instances.verify_sequence",
    "split_recon.build_meta_graph", "split_recon.reachable", "split_recon.witness",
    "oracle.enumerate", "oracle.state_space", "oracle.distance",
    "generators.instance", "instances.render_instance",
)
CASES = ("identical", "case1", "case2", "case3a", "case3b", "locked-in-G")
COUNTED = (
    "instances.input_bytes", "core.cliques", "interval_recon.steps",
    *(f"interval_recon.case.{tag}" for tag in CASES),
    "instances.steps_replayed",
    "split_recon.meta_nodes", "split_recon.meta_edges", "split_recon.witness_steps",
    "split_recon.unreachable",
    "oracle.states", "oracle.state_edges", "oracle.unreachable",
)
LAYER_METRICS = {
    **{f"{name}_s": "s" for name in TIMED},
    "cli.self_s": "s",
    **{name: "count" for name in COUNTED},
    "split_recon.meta_reached_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans and counts of one traced run, kept in memory until ``dump``."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans = []          # [name, instance, parent index, start, end]
        self.stack = []
        self.instance = "setup"
        self.root_scale = {}     # root span index -> host-speed scale of its call
        self.counts = Counter({name: 0 for name in COUNTED})
        self.meta_reached = 0
        self.meta_built = 0
        self._meta_pending = []

    def open(self, name):
        """Start a span; return its index."""
        self.spans.append([name, self.instance, self.stack[-1] if self.stack else None,
                           perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self):
        self.spans[self.stack.pop()][4] = perf_counter()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def settle(self, start):
        """Count meta-graph nodes reachable from the source node of the instance just solved."""
        for meta, model in self._meta_pending:
            src = meta.index.get(tuple(sorted(start & model.clique_part)))
            seen = {src}
            queue = deque([src])
            while queue:
                for j in meta.adj[queue.popleft()]:
                    if j not in seen:
                        seen.add(j)
                        queue.append(j)
            self.meta_reached += len(seen) if src is not None else 0
            self.meta_built += len(meta.nodes)
        self._meta_pending.clear()

    def layer_metrics(self):
        """Per-layer metrics: inclusive time per span name, counts, and cli self time.

        Times are scaled like the end-to-end ones, by the host-speed scale of
        the call each span belongs to.  A span nested inside a span of the
        same name is not counted twice.  ``cli.self_s`` is the time of the
        solve commands minus their direct child spans: argument parsing,
        file I/O and printing.
        """
        spans = self.spans
        times = dict.fromkeys(TIMED, 0.0)
        cli_self = 0.0
        root = []
        for i, (name, _, parent, start, end) in enumerate(spans):
            root.append(i if parent is None else root[parent])
            took = (end - start) * self.root_scale.get(root[i], 1.0)
            if name == "cli.solve":
                cli_self += took
            elif parent is not None and spans[parent][0] == "cli.solve":
                cli_self -= took
            if name not in times:
                continue
            up = parent
            while up is not None and spans[up][0] != name:
                up = spans[up][2]
            if up is None:
                times[name] += took
        out = {f"{name}_s": t for name, t in times.items()}
        out["cli.self_s"] = cli_self
        out.update(self.counts)
        out["split_recon.meta_reached_ratio"] = (
            self.meta_reached / self.meta_built if self.meta_built else 0.0)
        return out

    def dump(self, path):
        rows = [{"name": name, "instance": inst, "parent": parent,
                 "start": start - self.origin, "end": end - self.origin,
                 "scale": self.root_scale.get(i)}
                for i, (name, inst, parent, start, end) in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# --- counts taken at the wrapped boundaries ------------------------------------

def _input_bytes(counts, args, _):
    counts["instances.input_bytes"] += len(args[0])


def _cliques(counts, _, model):
    counts["core.cliques"] += model.t


def _case(counts, _, verdict):
    counts[f"interval_recon.case.{verdict.case}"] += 1


def _sequence_steps(counts, _, seq):
    if seq is not None:
        counts["interval_recon.steps"] += len(seq.steps)


def _replayed(counts, args, result):
    counts["instances.steps_replayed"] += len(args[1].steps) if result.ok else (result.step or 0)


def _reachable(counts, _, ok):
    counts["split_recon.unreachable"] += not ok


def _witness(counts, _, seq):
    if seq is None:
        counts["split_recon.unreachable"] += 1
    else:
        counts["split_recon.witness_steps"] += len(seq.steps)


def _state_space(counts, _, space):
    counts["oracle.states"] += len(space.states)
    counts["oracle.state_edges"] += sum(map(len, space.adj)) // 2


def _oracle(counts, _, result):
    counts["oracle.unreachable"] += result[0] == math.inf


def install(tracer):
    """Wrap the cross-layer names of csrecon; return a function that undoes it."""
    from csrecon import cli, instances, interval_recon, oracle, split_recon

    saved = []

    def patch(module, attr, name, count=None):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, count))

    def meta_graph(counts, args, meta):
        counts["split_recon.meta_nodes"] += len(meta.nodes)
        counts["split_recon.meta_edges"] += sum(map(len, meta.adj)) // 2
        tracer._meta_pending.append((meta, args[0]))

    patch(cli, "parse_instance", "instances.parse_instance", _input_bytes)
    patch(cli, "parse_sequence", "instances.parse_sequence")
    patch(cli, "render_sequence", "instances.render_sequence")
    patch(cli, "verify_sequence", "instances.verify_sequence", _replayed)
    patch(cli, "tar_distance", "interval_recon.distance", _case)
    patch(cli, "tj_distance", "interval_recon.distance")
    patch(cli, "shortest_tar_sequence", "interval_recon.sequence", _sequence_steps)
    patch(cli, "tj_sequence", "interval_recon.sequence", _sequence_steps)
    patch(cli, "split_tar_reachable", "split_recon.reachable", _reachable)
    patch(cli, "split_tar_witness", "split_recon.witness", _witness)
    patch(cli, "oracle_distance", "oracle.distance", _oracle)
    patch(instances, "model_from_intervals", "core.model_from_intervals", _cliques)
    patch(instances, "check_instance", "instances.check_instance")
    patch(instances, "Graph", "core.graph_build")
    # calls made inside a layer: tj_* reuse the tar functions, split_tar_* build
    # the meta-graph, oracle_distance builds and enumerates the state space
    patch(interval_recon, "tar_distance", "interval_recon.distance", _case)
    patch(interval_recon, "shortest_tar_sequence", "interval_recon.sequence")
    patch(split_recon, "build_meta_graph", "split_recon.build_meta_graph", meta_graph)
    patch(oracle, "build_state_space", "oracle.state_space", _state_space)
    patch(oracle, "enumerate_colorable_sets", "oracle.enumerate")

    split_model = instances.SplitModel

    class TracedSplitModel(split_model):
        __slots__ = ()

        def __init__(self, *args):
            tracer.open("core.graph_build")
            try:
                super().__init__(*args)
            finally:
                tracer.close()

    saved.append((instances, "SplitModel", split_model))
    instances.SplitModel = TracedSplitModel

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
