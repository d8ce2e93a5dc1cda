"""One digest of csrecon's command-line output over a seeded corpus.

Usage::

    python tools/cli_digest.py SRC [--seeds N]

SRC is the directory that holds the ``csrecon`` package (``src`` in a
checkout), so two checkouts can be compared byte for byte::

    python tools/cli_digest.py /path/to/other/checkout/src
    python tools/cli_digest.py src

For every seed, representation (interval, split, edges) and rule (tar, tj,
ts), ``gen`` writes an instance, which then goes through ``solve
--emit-sequence --out``, ``solve``, ``distance``, ``oracle --emit-sequence
--out`` and ``oracle --report``; every sequence file written is replayed
with ``verify``.

``gen``'s sets are nearly always maximal, so its instances almost never
reach the locked verdicts.  A second, fixed corpus (independent of
``--seeds``) is built with the library: seeded interval models with n <= 10
and c in {1, 2}, sets grown greedily to a random size below that of a
maximal set, and k the smaller set's size.  Draws continue until every
``DistanceVerdict.case`` has CASE_QUOTA instances; the tool fails if one
falls short.  Each goes through ``solve --emit-sequence --out``,
``distance``, ``oracle --emit-sequence --out`` and ``verify``.

All commands run in process through ``csrecon.cli.main``.  The digest
covers each command's arguments, exit code, stdout and stderr (with the
temporary directory masked), the text of every case-corpus instance and
the bytes of every file a command writes.  It prints ``<count> commands
<sha256>``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

REPRS = ("interval", "split", "edges")
RULES = ("tar", "tj", "ts")
CASES = ("identical", "case1", "case2", "case3a", "case3b", "locked-in-G")
CASE_QUOTA = 5
MAX_CASE_DRAWS = 100_000


def case_instances():
    """Seeded tar interval instances, CASE_QUOTA per verdict case, as csr/1 texts."""
    from csrecon import Instance, model_from_intervals, render_instance, tar_distance
    from csrecon.generators import greedy_set, random_endpoints

    rng = random.Random(0)
    found = {case: [] for case in CASES}
    for _ in range(MAX_CASE_DRAWS):
        if min(map(len, found.values())) >= CASE_QUOTA:
            break
        n = rng.randint(1, 10)
        c = rng.choice((1, 2))
        endpoints = random_endpoints(rng, n)
        model = model_from_intervals(endpoints)
        short = max(len(greedy_set(model, c, rng)) - 1, 0)
        start = greedy_set(model, c, rng, target=rng.randint(0, short))
        target = greedy_set(model, c, rng, target=rng.randint(0, short))
        k = min(len(start), len(target))
        kept = found[tar_distance(model, c, start, target, k).case]
        if len(kept) < CASE_QUOTA:
            kept.append(render_instance(
                Instance(model, "tar", c, k, start, target, endpoints=endpoints)))
    short_cases = [case for case in CASES if len(found[case]) < CASE_QUOTA]
    if short_cases:
        raise RuntimeError(f"case corpus lacks {short_cases} after {MAX_CASE_DRAWS} draws")
    return [text for case in CASES for text in found[case]]


def run_corpus(main, seeds, tmp):
    """Run the command set for seeds 0..seeds-1 in ``tmp``; return (count, sha256)."""
    digest = hashlib.sha256()
    count = 0

    def run(*argv, writes=None):
        nonlocal count
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        count += 1
        record = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
        if writes is not None:
            if os.path.exists(writes):
                with open(writes, "rb") as fh:
                    record.append(fh.read().decode("utf-8"))
            else:
                record.append("<no file>")
        digest.update("\0".join(record).replace(tmp, "<tmp>").encode("utf-8") + b"\1")
        return writes if writes is not None and os.path.exists(writes) else None

    def run_instance(inst, base, *plain):
        """Both emitting commands, then the ``plain`` argvs, then ``verify`` of each sequence."""
        seqs = [run(command, inst, "--emit-sequence", "--out", f"{base}.{command}.seq",
                    writes=f"{base}.{command}.seq")
                for command in ("solve", "oracle")]
        for argv in plain:
            run(*argv)
        for seq in seqs:
            if seq is not None:
                run("verify", inst, seq)

    for seed in range(seeds):
        n = 8 + seed % 3
        c = 1 + seed % 3
        for rep in REPRS:
            for rule in RULES:
                base = os.path.join(tmp, f"{seed}-{rep}-{rule}")
                inst = run("gen", "--repr", rep, "--n", str(n), "--c", str(c),
                           "--rule", rule, "--seed", str(seed), "--out", base + ".csr",
                           writes=base + ".csr")
                run_instance(inst, base, ("solve", inst), ("distance", inst),
                             ("oracle", inst, "--report"))
    for i, text in enumerate(case_instances()):
        base = os.path.join(tmp, f"case-{i}")
        inst = base + ".csr"
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest.update(text.encode("utf-8") + b"\1")
        run_instance(inst, base, ("distance", inst))
    return count, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", help="directory holding the csrecon package")
    parser.add_argument("--seeds", type=int, default=120)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from csrecon.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        count, sha = run_corpus(cli_main, args.seeds, tmp)
    print(f"{count} commands {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
