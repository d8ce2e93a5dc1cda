"""csrecon benchmark: seeded workloads through the csrecon CLI, in process.

    python3 bench/run.py --workload interval_large --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report and a JSON record of the run.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("interval_large", "split_meta", "oracle_small")
END_TO_END = {
    "solve_s": "s", "solve_p50_ms": "ms", "solve_tail_ms": "ms", "verify_s": "s",
    "setup_s": "s", "peak_rss_mib": "MiB",
}
SETUPS = 3        # set-ups per untraced run; setup_s is their median
MIN_PASSES = 3    # a run measures at least this many passes over the batch
PROBE_REF_S = 1e-3


# --- timing against the host's current speed ------------------------------------

def _probe_work():
    d = {}
    for i in range(3000):
        d[i * 7 % 1009] = i
    common = set(range(0, 6000, 3)) & set(range(0, 6000, 2))
    total = 0
    for i in range(3000):
        total += i * i % 7
    return len(common) + max(d.values()) + total


def _probe():
    enabled = gc.isenabled()
    gc.disable()          # a collection inside the probe would read as a slow host
    try:
        t0 = perf_counter()
        _probe_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Scales measured times to a host of fixed speed.

    The shared host this benchmark was tuned on runs the same pure-Python
    code up to twice as slowly for stretches of seconds to minutes.  A fixed
    probe (about 1 ms of dict, set and integer work) runs before and after
    every timed call.  The call's time is multiplied by PROBE_REF_S over the
    mean of the two probes: its duration on a host where the probe takes
    PROBE_REF_S.  Raw wall times are kept alongside.
    """

    def __init__(self):
        self.before = _probe()

    def factor(self):
        """Scale for the call that just ended; probes the host again."""
        after = _probe()
        scale = 2 * PROBE_REF_S / (self.before + after)
        self.before = after
        return scale


class SetupSpan:
    """Times one generate or render step of the set-up; optionally also a trace span."""

    def __init__(self, clock, totals, tracer=None):
        self.clock = clock
        self.totals = totals      # [raw seconds, scaled seconds]
        self.tracer = tracer

    def __call__(self, name):
        self.name = name
        return self

    def __enter__(self):
        if self.tracer is not None:
            self.index = self.tracer.open(self.name)
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        raw = perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.close()
        scale = self.clock.factor()
        if self.tracer is not None:
            self.tracer.root_scale[self.index] = scale
        self.totals[0] += raw
        self.totals[1] += raw * scale


# --- one pass over the batch ----------------------------------------------------

def _call(cli, argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash of the program is a failed instance, not of the run
            code = "crash"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    """Per-case timings (raw and scaled, None where nothing ran) and outcomes of one pass."""

    outcomes: list = field(default_factory=list)
    solve_raw: list = field(default_factory=list)
    solve: list = field(default_factory=list)
    verify_raw: list = field(default_factory=list)
    verify: list = field(default_factory=list)

    def total(self):
        return sum(self.solve) + sum(t for t in self.verify if t is not None)


class Batch:
    """The batch's files on disk and one pass of solve plus verify over them."""

    def __init__(self, cases, workdir):
        self.cases = cases
        self.paths = []
        for i, case in enumerate(cases):
            path = workdir / f"{i}.csr"
            path.write_text(case.text, encoding="utf-8")
            self.paths.append((str(path), workdir / f"{i}.seq"))

    def solve_argv(self, i):
        inst, seq = self.paths[i]
        case = self.cases[i]
        extra = ["--emit-sequence", "--out", str(seq)] if case.emit else []
        return [case.command, inst, *extra]

    def _timed(self, cli, argv, clock, tracer, label, root):
        if tracer is not None:
            tracer.instance = label
            index = tracer.open(root)
        t0 = perf_counter()
        result = _call(cli, argv)
        raw = perf_counter() - t0
        if tracer is not None:
            tracer.close()
        scale = clock.factor()
        if tracer is not None:
            tracer.root_scale[index] = scale
        return result, raw, raw * scale

    def run_pass(self, cli, tracer=None):
        """Solve every case, then verify every emitted sequence."""
        from answer_checks import Outcome

        for _, seq in self.paths:
            seq.unlink(missing_ok=True)
        gc.collect()
        p = Pass()
        clock = Clock()
        for i, case in enumerate(self.cases):
            (code, out, err), raw, scaled = self._timed(
                cli, self.solve_argv(i), clock, tracer, case.label, "cli.solve")
            if tracer is not None:
                tracer.settle(case.facts.start)
            p.outcomes.append(Outcome(code, (out.splitlines() or [err.strip()])[0], None))
            p.solve_raw.append(raw)
            p.solve.append(scaled)
        for i, case in enumerate(self.cases):
            inst, seq = self.paths[i]
            if not (case.emit and p.outcomes[i].code == 0 and seq.exists()):
                p.verify_raw.append(None)
                p.verify.append(None)
                continue
            (code, out, _), raw, scaled = self._timed(
                cli, ["verify", inst, str(seq)], clock, tracer, case.label, "cli.verify")
            p.outcomes[i].verify_code = code
            p.outcomes[i].verify_answer = out.strip()
            p.verify_raw.append(raw)
            p.verify.append(scaled)
        return p

    def read_sequences(self, outcomes):
        for (_, seq), outcome in zip(self.paths, outcomes):
            if seq.exists():
                outcome.sequence = seq.read_text(encoding="utf-8")


def evaluate(cases, outcomes, reference=None):
    """Failure reasons per case: full answer checks, or agreement with an already checked pass."""
    from answer_checks import check

    reasons = []
    for i, (case, out) in enumerate(zip(cases, outcomes)):
        if reference is None:
            reasons.append(check(case.facts, out, case.emit and out.code == 0))
            continue
        ref = reference[i]
        same = (out.code, out.answer, out.verify_code, out.verify_answer) == \
            (ref.code, ref.answer, ref.verify_code, ref.verify_answer)
        reasons.append(None if same else f"answer changed between passes: '{out.answer}'")
    return reasons


# --- statistics -----------------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    Below 21 samples that percentile would not reach the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def per_case(passes, attr, pick):
    """``pick`` over the passes of each case's time; cases never timed are skipped."""
    out = []
    for i in range(len(getattr(passes[0], attr))):
        times = [t for t in (getattr(p, attr)[i] for p in passes) if t is not None]
        if times:
            out.append(pick(times))
    return out


def whys():
    """The one-line reason for each workload, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"]: w["why"] for w in spec["workloads"]}


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def _digest(cases):
    return hashlib.sha256("\0".join(c.text for c in cases).encode()).hexdigest()


# --- a run ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, sizes):
    """Run one workload; return (report lines, final result dict)."""
    import csrecon.cli as cli
    import tracing
    import workloads

    why = whys()[name]
    tracer = tracing.Tracer() if trace else None
    failures = []

    # set-up: generate and render the batch from the seed, several times
    setups = []
    digest = None
    for _ in range(1 if trace else SETUPS):
        gc.collect()
        totals = [0.0, 0.0]
        cases = workloads.BUILD[name](seed, sizes, SetupSpan(Clock(), totals, tracer))
        setups.append(totals)
        if digest is not None and _digest(cases) != digest:
            failures.append(("set-up", "the same seed rendered different files"))
        digest = _digest(cases)
    workloads.attach_references(cases)

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    gc.freeze()
    try:
        batch = Batch(cases, workdir)
        passes = []
        begin = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
            result = batch.run_pass(cli)
            if not passes:
                batch.read_sequences(result.outcomes)
                reasons = evaluate(cases, result.outcomes)
                checked = result.outcomes
            else:
                reasons = evaluate(cases, result.outcomes, checked)
            failures += [(c.label, r) for c, r in zip(cases, reasons) if r]
            passes.append(result)
        attempted = len(cases) * len(passes)
        if tracer is not None:
            restore = tracing.install(tracer)
            try:
                traced = batch.run_pass(cli, tracer)
            finally:
                restore()
            failures += [(c.label, r) for c, r in
                         zip(cases, evaluate(cases, traced.outcomes, checked)) if r]
            attempted += len(cases)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    # each case's time is its median over the passes, at the reference host speed
    solve = per_case(passes, "solve", statistics.median)
    tail_value, tail_pct, tail_n = tail(solve)
    end_to_end = {
        "solve_s": sum(solve),
        "solve_p50_ms": 1e3 * statistics.median(solve),
        "solve_tail_ms": 1e3 * tail_value,
        "verify_s": sum(per_case(passes, "verify", statistics.median)),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": name, "why": why, "seed": seed, "trace": trace,
        "machine": machine(), "batch_size": len(cases), "passes": len(passes),
        "seconds": seconds, "setups": len(setups),
        "tail": {"percentile": round(tail_pct, 1), "instances": tail_n},
        "fail_rate": len(failures) / attempted,
        "failures": [f"{label}: {reason}" for label, reason in failures[:20]],
        "end_to_end": end_to_end,
        # unscaled wall times, for comparison with the scaled metrics
        "raw": {"solve_s": sum(per_case(passes, "solve_raw", statistics.median)),
                "solve_fastest_s": sum(per_case(passes, "solve_raw", min)),
                "verify_s": sum(per_case(passes, "verify_raw", statistics.median)),
                "setup_s": statistics.median(raw for raw, _ in setups)},
    }
    if tracer is None:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end.items()}
    else:
        layer = tracer.layer_metrics()
        layer["trace.overhead_ratio"] = traced.total() / statistics.median(
            p.total() for p in passes)
        metrics = {k: (layer[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
        trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
        tracer.dump(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["per_layer"] = layer
    report = [f"# {name} seed={seed} trace={trace}: {why}",
              f"# machine: {json.dumps(machine())}",
              f"# batch: {len(cases)} instances, {len(passes)} passes, {len(setups)} set-ups; "
              f"tail is p{tail_pct:.0f} of {tail_n} instances",
              f"fail_rate {record['fail_rate']:.6g} ratio ({len(failures)} of {attempted})"]
    report += [f"{k} {v if isinstance(v, int) else format(v, '.6g')} {unit}"
               for k, (v, unit) in metrics.items()]
    report += [f"# failed {label}: {reason}" for label, reason in failures[:20]]
    report.append(json.dumps({"record": record}))
    final = {"correct": not failures, "attempted": attempted, "failed": len(failures),
             "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    return report, final


def _source_tree():
    """Put the checkout's src/ first on the import path; False when it is missing."""
    if not (SRC / "csrecon" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import csrecon
    return Path(csrecon.__file__).resolve().is_relative_to(SRC)


def main(argv=None, tiny=False):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _source_tree():
        print(f"error: no csrecon sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads
    sizes = (workloads.TINY if tiny else workloads.SIZES)[args.workload]
    report, final = run_workload(args.workload, args.seed, args.seconds, args.trace, sizes)
    for line in report:
        print(line)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
