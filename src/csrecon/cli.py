"""Command-line front end over the csr/1 file format.

Exit codes: 0 reachable / verified, 1 unreachable / verification failed,
2 input or resource error.  Standard output carries only the answer line;
diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import gc
import math
import random
import sys
from functools import cache, partial

from .core import FormatError, IntervalModel, InvariantError, ResourceLimitError, SplitModel
from .generators import (
    random_edges_instance,
    random_interval_instance,
    random_split_instance,
)
from .instances import (
    Instance,
    parse_document,
    parse_instance,
    parse_sequence,
    render_instance,
    render_sequence,
    tar_to_tj,
    verify_sequence,
    _int,
    _need,
    _vertex_list,
)
# tj_distance is not called here, but stays bound for callers that wrap this module's names
from .interval_recon import shortest_tar_sequence, tar_distance, tj_distance, tj_sequence
from .oracle import (
    DEFAULT_MAX_N,
    DEFAULT_REPORT_MAX_STATES,
    oracle_connectivity_report,
    oracle_distance,
)
from .reductions import isr_to_split_csr, oct_to_colorable_set, spr_to_cocomp_csr
from .split_recon import DEFAULT_MAX_C, split_tar_reachable, split_tar_witness

EXIT_OK = 0
EXIT_UNREACHABLE = 1
EXIT_ERROR = 2


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_sequence(args, seq):
    _write(args.out, render_sequence(seq))


def _require_out(args, emit):
    """Refuse sequence emission without a target file, before any solving."""
    if emit and not args.out:
        raise InvariantError("--emit-sequence requires --out")


def _solve_oracle(inst, args, emit):
    dist, seq = oracle_distance(
        inst.representation, inst.c, inst.start, inst.target,
        k=inst.k, rule=inst.rule,
        max_n=args.max_n, max_states=args.max_states, trackers=inst.take_trackers())
    if dist == math.inf:
        print("unreachable")
        return EXIT_UNREACHABLE
    print(dist)
    if emit:
        _emit_sequence(args, seq)
    return EXIT_OK


def _cmd_solve(args, split=True):
    """Answer one instance; with ``split=False`` split instances go to the oracle."""
    inst = parse_instance(_read(args.instance))
    rep = inst.representation
    emit = getattr(args, "emit_sequence", False)
    on_split = split and isinstance(rep, SplitModel) and inst.rule in ("tar", "tj")
    _require_out(args, emit)
    # tj at |S| is tar at floor |S|-1 (Kamiński, Medvedev and Milanič, TCS 439, 2012)
    floor = inst.k if inst.rule == "tar" else max(len(inst.start) - 1, 0)
    if isinstance(rep, IntervalModel) and inst.rule in ("tar", "tj"):
        verdict = tar_distance(rep, inst.c, inst.start, inst.target, floor, inst.take_trackers())
        if verdict.distance == math.inf:
            print("unreachable (locked)")
            return EXIT_UNREACHABLE
        print(verdict.distance if inst.rule == "tar" else verdict.distance // 2)
        if emit and inst.rule == "tar":
            _emit_sequence(args, shortest_tar_sequence(
                rep, inst.c, inst.start, inst.target, floor, verdict=verdict))
        elif emit:
            _emit_sequence(args, tj_sequence(rep, inst.c, inst.start, inst.target, verdict))
        return EXIT_OK
    if on_split:
        # a witness, or the bare verdict: None or False when unreachable
        found = (split_tar_witness if emit else split_tar_reachable)(
            rep, inst.c, inst.start, inst.target, floor, max_c=args.max_c)
        print("reachable" if found else "unreachable")
        if emit and found:
            _emit_sequence(args, found if inst.rule == "tar" else tar_to_tj(found))
        return EXIT_OK if found else EXIT_UNREACHABLE
    # token sliding and plain edge lists go to the guarded oracle
    return _solve_oracle(inst, args, emit)


def _cmd_verify(args):
    inst = parse_instance(_read(args.instance))
    seq = parse_sequence(_read(args.sequence))
    result = verify_sequence(inst, seq)
    if result.ok:
        print("ok")
        return EXIT_OK
    where = "start" if result.step is None else f"step {result.step}"
    print(f"violation at {where}: {result.reason}")
    return EXIT_UNREACHABLE


def _cmd_oracle(args):
    inst = parse_instance(_read(args.instance))
    if args.report and args.emit_sequence:
        raise InvariantError("--emit-sequence cannot be combined with --report")
    if not args.report:
        _require_out(args, args.emit_sequence)
        return _solve_oracle(inst, args, emit=args.emit_sequence)
    cap = DEFAULT_REPORT_MAX_STATES if args.max_states is None else args.max_states
    report = oracle_connectivity_report(
        inst.representation, inst.c, inst.k, rule=inst.rule,
        max_n=args.max_n, max_states=cap)
    sizes = " ".join(str(x) for x in report.sizes)
    diameters = " ".join(str(x) for x in report.diameters)
    print(f"components: {report.components}; sizes: {sizes}; diameters: {diameters}")
    return EXIT_OK


def _cmd_reduce(args):
    if args.kind == "oct" and args.rule:
        raise InvariantError("--rule applies only to --kind isr and spr")
    header, g, fields = parse_document(_read(args.source))
    if isinstance(g, SplitModel):
        g = g.graph
    if isinstance(g, IntervalModel):
        raise InvariantError("reduction sources must use the edges representation")

    meta_lines = [f"kind: {args.kind}"]
    need = partial(_need, fields, lineno=fields.end, suffix=f" (required for {args.kind})")
    if args.kind == "oct":
        if "c" not in header or "k" not in header:
            raise FormatError("oct sources need 'c:' and 'k:' headers", header["body"][1])
        c = _int(*header["c"], "c")
        k = _int(*header["k"], "k")
        out = oct_to_colorable_set(g, c, k)
        inst = Instance(out.graph, "tar", out.c, 0, set(), set())
        extra = [f"target: {out.target_size}"]
        for layer, group in enumerate(out.padding_cliques):
            for v in group:
                meta_lines.append(f"pad: {v} layer {layer}")
    elif args.kind == "isr":
        start = set(_vertex_list(*need("I")))
        target = set(_vertex_list(*need("I2")))
        out = isr_to_split_csr(g, start, target)
        rule = args.rule or "tj"
        # image sets have size k; the addition-removal variant runs at floor k-1
        inst = Instance(out.model, rule, out.c, out.k - 1, out.phi_start, out.phi_target)
        extra = []
        for v, (eu, ev) in sorted(out.edge_of_vertex.items()):
            meta_lines.append(f"pad: {v} edge {eu} {ev}")
    else:  # spr
        s = _int(*need("s"), "s")
        t = _int(*need("t"), "t")
        path_start = _vertex_list(*need("P"))
        path_target = _vertex_list(*need("P2"))
        if "c" not in header:
            raise FormatError("spr sources need a 'c:' header", header["body"][1])
        c = _int(*header["c"], "c")
        out = spr_to_cocomp_csr(g, s, t, path_start, path_target, c)
        rule = args.rule or "tj"
        k = out.k - 1
        inst = Instance(out.graph, rule, out.c, k, out.phi_start, out.phi_target)
        extra = []
        for layer, group in enumerate(out.padding):
            for v in group:
                meta_lines.append(f"pad: {v} layer {layer}")
        for new_id, orig in sorted(out.source_vertex.items()):
            meta_lines.append(f"orig: {new_id} {orig}")
        meta_lines.append("order: " + " ".join(str(v) for v in out.order))
    text = render_instance(inst)
    for line in extra:
        text += line + "\n"
    _write(args.out, text)
    meta_path = args.meta or (args.out + ".meta")
    _write(meta_path, "\n".join(meta_lines) + "\n")
    return EXIT_OK


def _cmd_gen(args):
    if args.n < 0:
        raise InvariantError("vertex count must be nonnegative")
    if not 0 <= args.p <= 1:
        raise InvariantError("--p must be between 0 and 1")
    for flag, value, low in (("--coord-max", args.coord_max, 1), ("--max-len", args.max_len, 0)):
        if value is not None and value < low:
            raise InvariantError(f"{flag} must be at least {low}")
    rng = random.Random(args.seed)
    if args.repr == "interval":
        inst = random_interval_instance(rng, args.n, args.c, rule=args.rule,
                                        k=args.k, coord_max=args.coord_max,
                                        max_len=args.max_len)
    elif args.repr == "split":
        inst = random_split_instance(rng, args.n, args.c, rule=args.rule,
                                     k=args.k, p=args.p)
    else:
        inst = random_edges_instance(rng, args.n, args.c, rule=args.rule,
                                     k=args.k, p=args.p)
    meta = (f"# gen: mt19937 seed={args.seed} repr={args.repr} n={args.n} "
            f"c={args.c} k={inst.k} rule={args.rule}\n")
    text = meta + render_instance(inst)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_oracle_flags(sub):
    sub.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                     help="vertex-count guard for oracle search")
    sub.add_argument("--max-states", type=int, default=None,
                     help="cap on states the distance search finds, or --report enumerates "
                          f"(default: none, or {DEFAULT_REPORT_MAX_STATES} with --report)")


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="csrecon",
        description="Reconfiguration of c-colorable vertex sets over csr/1 files")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="decide reachability / shortest distance")
    solve.add_argument("instance")
    solve.add_argument("--emit-sequence", action="store_true")
    solve.add_argument("--out", help="sequence output path")
    solve.add_argument("--max-c", type=int, default=DEFAULT_MAX_C)
    _add_oracle_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    distance = subs.add_parser("distance", help="print the distance only")
    distance.add_argument("instance")
    _add_oracle_flags(distance)
    # shortest distances on split graphs are only available at oracle scale
    distance.set_defaults(func=partial(_cmd_solve, split=False))

    verify = subs.add_parser("verify", help="replay a sequence against an instance")
    verify.add_argument("instance")
    verify.add_argument("sequence")
    verify.set_defaults(func=_cmd_verify)

    oracle = subs.add_parser("oracle", help="exact BFS distance on small instances")
    oracle.add_argument("instance")
    oracle.add_argument("--emit-sequence", action="store_true")
    oracle.add_argument("--out")
    oracle.add_argument("--report", action="store_true",
                        help="print the state-space connectivity summary instead")
    _add_oracle_flags(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    reduce_p = subs.add_parser("reduce", help="build a hardness-construction instance")
    reduce_p.add_argument("source")
    reduce_p.add_argument("--kind", required=True, choices=("oct", "isr", "spr"))
    reduce_p.add_argument("--rule", choices=("tar", "tj", "ts"), default=None)
    reduce_p.add_argument("--out", required=True)
    reduce_p.add_argument("--meta", default=None)
    reduce_p.set_defaults(func=_cmd_reduce)

    gen = subs.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("--repr", required=True, choices=("interval", "split", "edges"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--c", type=int, required=True)
    gen.add_argument("--k", type=int, default=None,
                     help="size floor; clamped to the generated set sizes")
    gen.add_argument("--rule", choices=("tar", "tj", "ts"), default="tar")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--coord-max", type=int, default=None)
    gen.add_argument("--max-len", type=int, default=None)
    gen.add_argument("--p", type=float, default=0.5, help="edge density for split/edges")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # the command runs with the cyclic collector paused, as the library makes no reference
    # cycles (a test holds it to that); the caller's setting comes back after
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (FormatError, InvariantError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
